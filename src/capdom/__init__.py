"""Solvers for soft-capacitated domination on vertex-weighted graphs.

Import each name from the module that defines it, such as `capdom.core`
or `capdom.tddp`; importing the package itself loads no other module.
"""
