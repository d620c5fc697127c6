"""Privacy-preserving data-mining applications built on randomized response.

These modules exercise the optimized RR matrices end to end in the scenarios
the paper's introduction and related work motivate: reconstructing joint
distributions of several disguised attributes, estimating itemset supports
for association-rule mining, and building decision trees from disguised data.
"""
