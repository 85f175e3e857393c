from hypothesis import settings

# every property test: derandomized, so tier-1 is reproducible, with no deadline and no example database
settings.register_profile("spinchain", max_examples=40, deadline=None, derandomize=True, database=None)
settings.load_profile("spinchain")
