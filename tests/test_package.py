import sparsedrift


def test_every_public_name_resolves():
    # a name left in __all__ after its function is deleted breaks `from sparsedrift import *`
    missing = [name for name in sparsedrift.__all__ if not hasattr(sparsedrift, name)]
    assert not missing
