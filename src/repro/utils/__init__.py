"""Small shared utilities: validation, linear algebra and logging helpers."""
