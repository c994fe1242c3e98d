import netident


def test_every_export_resolves():
    for name in netident.__all__:
        assert getattr(netident, name) is not None, name
