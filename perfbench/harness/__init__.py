"""Modules of the served-request benchmark; perfbench/run.py is the entry point."""
