"""Exception hierarchy shared by all fbinv modules."""


class FbinvError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(FbinvError):
    pass


class NotSquare(FbinvError):
    pass


class BadSize(FbinvError):
    pass


class ZeroPoint(FbinvError):
    pass


class AllZero(FbinvError):
    pass


class DegreeExceeded(FbinvError):
    pass


class DegreeMismatch(FbinvError):
    pass


class SingularMatrix(FbinvError):
    pass


class SingularTransform(SingularMatrix):
    pass


class NotHomogeneous(FbinvError):
    pass


class RankDeficient(FbinvError):
    pass


class EllTooSmall(FbinvError):
    pass


class SyzygyBudgetExceeded(FbinvError):
    """Kernel generators were not complete within the degree bound.

    For a valid full-rank system this cannot happen; raising instead of
    returning keeps a violated structural invariant loud.
    """


class WitnessCheckFailed(FbinvError):
    """A witness failed the independent check that certifies it."""


class NotObservable(FbinvError):
    pass


class NotAdmissible(FbinvError):
    pass


class NotControllable(FbinvError):
    pass


class DegenerateSystem(FbinvError):
    pass


class DimensionMismatch(FbinvError):
    pass


class ParseError(FbinvError):
    pass
