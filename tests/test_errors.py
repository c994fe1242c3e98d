import inspect
import pickle

from netident import errors

# Arguments past the message, for the classes whose constructors take them.
EXTRA = {
    errors.InsufficientOrderError: {"required": 3},
    errors.DeconvolutionBlockedError: {"k": 2},
}


def test_every_error_survives_a_pickle_round_trip():
    # An error raised in a worker process reaches its parent pickled.
    classes = [obj for obj in vars(errors).values()
               if inspect.isclass(obj) and issubclass(obj, errors.NetidentError)]
    assert set(EXTRA) <= set(classes)
    for cls in classes:
        err = cls("the message", **EXTRA.get(cls, {}))
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls, cls
        assert str(back) == "the message" and back.args == err.args, cls
        assert getattr(back, "k", None) == getattr(err, "k", None), cls
        assert getattr(back, "required", None) == getattr(err, "required", None), cls
        assert vars(back) == vars(err), cls
