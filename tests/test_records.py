"""The package's record types are immutable named tuples: an attribute
cannot be set, equal fields make equal objects with equal hashes, and every
validation runs in the constructor and again in ``_replace``."""

import pytest

import operator

from regover.claims import (
    Build,
    Caps,
    CongruenceClaim,
    IdentityClaim,
    Instance,
    Op,
    PrimeFamily,
    Term,
    VerificationReport,
    _Check,
)
from regover.products import EtaQuotientSpec, ThetaSpec, euler_product
from regover.sequences import SequenceRef
from regover.series import Ring, ZZ

# one builder per record type; each call makes a new object with the same fields
RECORDS = {
    "Ring": lambda: Ring(5),
    "EtaQuotientSpec": lambda: EtaQuotientSpec(1, ((2, 1), (1, -2))),
    "ThetaSpec": lambda: ThetaSpec(1, 3, -1, 7),
    "SequenceRef": lambda: SequenceRef("A", 5),
    "Caps": lambda: Caps(prime_cap=7, k_cap=2, bound=300),
    "Term": lambda: Term(SequenceRef("pbar"), 5, 3, sign_twist=True),
    "Instance": lambda: Instance((("k", 0),), 5, Term(SequenceRef("p"), 5, 4), Term(None)),
    "PrimeFamily": lambda: PrimeFamily(SequenceRef("A", 5), 5, 1, 3, 4, (10, (3, 7, 9))),
    "CongruenceClaim": lambda: CongruenceClaim(
        "C-X", (Instance((("k", 0),), 5, Term(SequenceRef("p"), 5, 4), Term(None)),), "src"
    ),
    "CongruenceClaim of a family": lambda: CongruenceClaim(
        "C-Y", PrimeFamily(SequenceRef("A", 3), 3, 1, 1, 0, (4, (3,))), "src"
    ),
    "Build": lambda: Build(euler_product, (2,)),
    "Op": lambda: Op(operator.pow, (Build(euler_product, (1,)), 5)),
    "IdentityClaim": lambda: IdentityClaim(
        "I-X",
        (
            Instance(
                (("p", 5),),
                5,
                Op(operator.pow, (Build(euler_product, (1,)), 5)),
                Term(SequenceRef("pbar"), 5),
            ),
        ),
        100,
        None,
        "src",
    ),
    "VerificationReport": lambda: VerificationReport("C-X", 200, 39, "pass"),
    "_Check": lambda: _Check((("p", 5),), 5, Term(SequenceRef("p"), 5, 4), Term(None), 0, 39),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_cannot_be_changed(name):
    record = RECORDS[name]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == RECORDS[name]()


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_make_equal_records(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b
    assert not a != b
    assert type(a)(*a) == a
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Ring(5)._replace(modulus=0), "modulus must be >= 2"),
        (lambda: EtaQuotientSpec()._replace(factors=((-2, 1),)), "scale -2 must be >= 1"),
        (lambda: ThetaSpec()._replace(b_sign=3), "signs must be"),
        (lambda: SequenceRef("A", 5)._replace(param=None), "sequence 'A' requires a parameter"),
        (
            lambda: RECORDS["IdentityClaim"]()._replace(instances=()),
            "identity claim needs at least one instance",
        ),
    ],
    ids=["Ring", "EtaQuotientSpec", "ThetaSpec", "SequenceRef", "IdentityClaim"],
)
def test_replace_validates_as_the_constructor_does(build, message):
    # the constructors' own messages are checked beside each type's other tests
    with pytest.raises(ValueError, match=f"^{message}"):
        build()


def test_reprs_name_every_field():
    assert repr(Ring(5)) == "Zmod(5)" and repr(ZZ) == "ZZ"
    assert repr(SequenceRef("A", 5)) == "SequenceRef(name='A', param=5)"
    assert repr(Caps()) == "Caps(prime_cap=20, k_cap=1, bound=2000)"
    assert repr(EtaQuotientSpec(0, ((1, -1),))) == (
        "EtaQuotientSpec(prefactor_exponent=0, factors=((1, -1),))"
    )
    assert repr(VerificationReport("C-X", 1, 0, "skipped")) == (
        "VerificationReport(claim_id='C-X', bound=1, instances=0, status='skipped',"
        " counterexample=None)"
    )
