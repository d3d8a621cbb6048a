from hypothesis import HealthCheck, Phase, settings

# The explicit phase runs every @example case.  No explain phase: it reruns
# a failing example under a line tracer, which can take minutes; generate
# and shrink report the failure in seconds.
settings.register_profile(
    "exact",
    deadline=None,
    derandomize=True,
    phases=[Phase.explicit, Phase.generate, Phase.shrink],
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")
