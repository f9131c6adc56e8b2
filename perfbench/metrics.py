"""Metric definitions, and the layer -> end-to-end metric -> workload map.

Standard library only: the parent process imports it without numpy.
"""

WORKLOAD_NAMES = ["schottky-spectral", "crown-search", "geometry-kernels",
                  "cli-batch"]

# name, unit, meaning
END_TO_END = [
    ("wall_s", "s", "median seconds for one pass"),
    ("setup_s", "s", "median seconds from a fresh interpreter until the "
                     "first pass can start: import plus building inputs"),
    ("peak_rss_mb", "MB", "peak resident memory of the process running the "
                          "passes; for cli-batch the largest command"),
    ("cmd_p50_s", "s", "median latency of one command (a CLI command in "
                       "cli-batch, the in-process call it stands for "
                       "elsewhere): the median over passes of each pass's "
                       "median, which unlike a pooled median does not "
                       "land between the slowest of one command and the "
                       "fastest of another"),
]
# A run has 6 to 120 command latencies, too few for a fixed 90th
# percentile to have ten samples beyond it; the record gives instead the
# highest percentile that does, with the sample count.

# name, unit, source, end-to-end metric it should move, on which workload.
# Sources: ("span", name) inclusive seconds per pass in that span;
# ("count", key) per-pass counter; ("ratio", num, den) of two counters;
# ("sample", key) median of per-command values; ("import",) import time
# of pqgeo.cli in a fresh interpreter; ("overhead",) traced minus
# untraced pass seconds.
PER_LAYER = [
    ("groups.word_ball_s", "s", ("span", "groups.word_ball"),
     "wall_s", "schottky-spectral"),
    ("groups.ball_elements", "count", ("count", "groups.ball_elements"),
     "wall_s", "schottky-spectral"),
    ("groups.products_tried", "count", ("count", "groups.products_tried"),
     "wall_s", "schottky-spectral"),
    ("groups.dedup_keep_ratio", "ratio",
     ("ratio", "groups.products_kept", "groups.products_tried"),
     "wall_s", "schottky-spectral"),
    ("groups.signature_scan_s", "s", ("span", "groups.signature_scan"),
     "wall_s", "geometry-kernels"),
    ("groups.lie_closure_s", "s", ("span", "groups.lie_closure"),
     "wall_s", "geometry-kernels"),
    ("groups.bend_s", "s", ("span", "groups.bend"),
     "wall_s", "geometry-kernels"),
    ("anosov.limit_set_s", "s", ("span", "anosov.limit_set"),
     "wall_s", "schottky-spectral"),
    ("anosov.negativity_s", "s", ("span", "anosov.negativity"),
     "wall_s", "schottky-spectral"),
    ("anosov.gap_series_s", "s", ("span", "anosov.gap_series"),
     "wall_s", "schottky-spectral"),
    ("anosov.limit_cone_s", "s", ("span", "anosov.limit_cone"),
     "wall_s", "schottky-spectral"),
    ("anosov.limit_points", "count", ("count", "anosov.limit_points"),
     "wall_s", "schottky-spectral"),
    ("anosov.cone_rays", "count", ("count", "anosov.cone_rays"),
     "wall_s", "schottky-spectral"),
    ("model.lift_nonpositive_s", "s", ("span", "model.lift_nonpositive"),
     "wall_s", "schottky-spectral"),
    ("model.pair_class_s", "s", ("span", "model.pair_class"),
     "wall_s", "geometry-kernels"),
    ("model.pair_class_conformal_s", "s",
     ("span", "model.pair_class_conformal"), "wall_s", "geometry-kernels"),
    ("model.hilbert_distance_s", "s", ("span", "model.hilbert_distance"),
     "wall_s", "geometry-kernels"),
    ("model.pairs_classified", "count", ("count", "model.pairs_classified"),
     "wall_s", "geometry-kernels"),
    ("graphs.lipschitz_check_s", "s", ("span", "graphs.lipschitz_check"),
     "wall_s", "geometry-kernels"),
    ("graphs.split_spacetime_s", "s", ("span", "graphs.split_spacetime"),
     "wall_s", "geometry-kernels"),
    ("graphs.points_s", "s", ("span", "graphs.points"),
     "wall_s", "geometry-kernels"),
    ("crowns.detect_s", "s", ("span", "crowns.detect"),
     "wall_s", "crown-search"),
    ("forms.census_s", "s", ("span", "forms.census"),
     "wall_s", "crown-search"),
    ("crowns.search_space", "count", ("count", "crowns.search_space"),
     "wall_s", "crown-search"),
    ("crowns.census_calls", "count", ("count", "crowns.census_calls"),
     "wall_s", "crown-search"),
    ("crowns.found", "count", ("count", "crowns.found"),
     "wall_s", "crown-search"),
    ("crowns.hit_ratio", "ratio",
     ("ratio", "crowns.found", "crowns.census_calls"),
     "wall_s", "crown-search"),
    ("cli.import_s", "s", ("import",), "setup_s", "all"),
    ("cli.startup_s", "s", ("sample", "cli.startup"),
     "cmd_p50_s", "cli-batch"),
    ("cli.handler_s", "s", ("sample", "cli.handler"),
     "cmd_p50_s", "cli-batch"),
    ("cli.artifact_bytes", "bytes", ("count", "cli.artifact_bytes"),
     "wall_s", "cli-batch"),
    ("trace.overhead_s", "s", ("overhead",), "wall_s", "all"),
]


def quantile(values, q):
    """Linear-interpolation quantile, as numpy's default method."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def tail(values):
    """The highest percentile with at least ten samples beyond it, or
    None when there are fewer than twenty samples."""
    if len(values) < 20:
        return None
    q = 1.0 - 10.0 / len(values)
    return {"quantile": q, "value": quantile(values, q),
            "samples": len(values)}
