import calibrate


def test_interval_scales_use_the_probes_around_each_interval():
    probe = calibrate.Probe()
    ref = calibrate.REFERENCE_NS
    # a probe before the bundle, one between intervals 1 and 2, one after
    probe.samples = [ref, 2 * ref, ref]
    probe.marks = [1, 2, 2]
    assert list(probe.interval_scales()) == [2 / 3, 2 / 3, 2 / 3]
    probe.marks = [1, 1, 2]
    assert probe.interval_scales()[1] == 2 / 3
    assert probe.scale == 0.75
