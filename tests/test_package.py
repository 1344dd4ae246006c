import influence_tracker


def test_every_exported_name_exists_once():
    names = influence_tracker.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(influence_tracker, name)] == []
