from __future__ import annotations

import random

import pytest

from olog.core import (
    Aspect,
    CoproductDecl,
    Fact,
    Graph,
    ImageDecl,
    Path,
    ProductDecl,
    PullbackDecl,
    PushoutDecl,
    Specification,
    TypeNode,
    decl_errors,
    id_errors,
    missing_square_facts,
    validate_decls,
    validate_specification,
)
from olog.errors import SketchError, SynthesisError
from olog.instances import key_diagram, satisfies_spec
from olog.sketch import (
    CheckResult,
    check_all,
    check_coproduct,
    check_decl,
    check_image,
    check_injective,
    check_product,
    check_pullback,
    check_pushout,
    check_surjective,
    derive_mediating_aspect,
    populate_mediator,
    synthesize,
)

from .worlds import KINDS, random_world


def two_factor_world():
    g = Graph(
        types=(
            TypeNode("A", "a number between 1 and 10"),
            TypeNode("B", "a letter between x and z"),
            TypeNode("P", "a pair (n,l) of a number and a letter"),
        ),
        aspects=(
            Aspect("pa", "P", "A", "yields the number"),
            Aspect("pb", "P", "B", "yields the letter"),
        ),
    )
    decl = ProductDecl("P", (("A", "pa"), ("B", "pb")))
    return g, decl


def test_product_full_grid_passes():
    g, decl = two_factor_world()
    d = key_diagram({"A": [str(n) for n in range(1, 11)], "B": ["x", "y", "z"], "P": []},
                    {"pa": {}, "pb": {}})
    d = synthesize(decl, d)
    assert len(d.sets["P"]) == 30
    assert check_product(d, decl).passed


def test_product_missing_tuple_witness():
    g, decl = two_factor_world()
    d = key_diagram({"A": [str(n) for n in range(1, 11)], "B": ["x", "y", "z"], "P": []},
                    {"pa": {}, "pb": {}})
    d = synthesize(decl, d)
    victim = "(4,z)"
    sets = {**d.sets, "P": d.sets["P"] - {victim}}
    funcs = {a: {k: v for k, v in f.items() if k != victim} for a, f in d.funcs.items()}
    res = check_product(key_diagram(sets, funcs), decl)
    assert not res.passed and "missing tuple" in res.witness


def test_product_duplicate_tuple_witness():
    g, decl = two_factor_world()
    d = key_diagram(
        {"A": ["1"], "B": ["x"], "P": ["p1", "p2"]},
        {"pa": {"p1": "1", "p2": "1"}, "pb": {"p1": "x", "p2": "x"}},
    )
    res = check_product(d, decl)
    assert not res.passed and "duplicated tuple" in res.witness


def test_zero_factor_product_is_singleton():
    decl = ProductDecl("U", ())
    ok = key_diagram({"U": ["()"]}, {})
    bad = key_diagram({"U": ["u1", "u2"]}, {})
    assert check_product(ok, decl).passed
    assert not check_product(bad, decl).passed
    res = check_decl(key_diagram({"U": ["x"]}, {}), Graph(), decl)
    assert res.passed and res.kind == "singleton"


def customers_world():
    g = Graph(
        types=(
            TypeNode("cust", "a customer"),
            TypeNode("wealthy", "a wealthy customer"),
            TypeNode("loyal", "a loyal customer"),
            TypeNode("both", "a customer that is wealthy and loyal"),
        ),
        aspects=(
            Aspect("iw", "wealthy", "cust", "is"),
            Aspect("il", "loyal", "cust", "is"),
            Aspect("qw", "both", "wealthy", "is"),
            Aspect("ql", "both", "loyal", "is"),
        ),
    )
    decl = PullbackDecl(
        "both", ("wealthy", "qw"), ("loyal", "ql"),
        (Path("wealthy", ("iw",)), Path("loyal", ("il",))),
    )
    return g, decl


def test_pullback_intersection():
    g, decl = customers_world()
    d = key_diagram(
        {
            "cust": ["c1", "c2", "c3", "c4", "c5"],
            "wealthy": ["w1", "w2"],
            "loyal": ["l1", "l2"],
            "both": [],
        },
        {
            "iw": {"w1": "c1", "w2": "c2"},
            "il": {"l1": "c2", "l2": "c3"},
            "qw": {},
            "ql": {},
        },
    )
    d = synthesize(decl, d)
    assert d.sets["both"] == frozenset({"(w2,l1)"})
    assert check_pullback(d, decl).passed


def test_pullback_singleton_interval():
    g = Graph(
        types=(
            TypeNode("real", "a real number"),
            TypeNode("nonneg", "a real number that is at least zero"),
            TypeNode("nonpos", "a real number that is at most zero"),
            TypeNode("zero", "a real number that is zero"),
        ),
        aspects=(
            Aspect("ge", "nonneg", "real", "is"),
            Aspect("le", "nonpos", "real", "is"),
            Aspect("z1", "zero", "nonpos", "is"),
            Aspect("z2", "zero", "nonneg", "is"),
        ),
    )
    decl = PullbackDecl(
        "zero", ("nonpos", "z1"), ("nonneg", "z2"),
        (Path("nonpos", ("le",)), Path("nonneg", ("ge",))),
    )
    d = key_diagram(
        {
            "real": ["-1", "0", "1"],
            "nonneg": ["0", "1"],
            "nonpos": ["-1", "0"],
            "zero": [],
        },
        {
            "ge": {"0": "0", "1": "1"},
            "le": {"-1": "-1", "0": "0"},
            "z1": {},
            "z2": {},
        },
    )
    d = synthesize(decl, d)
    assert len(d.sets["zero"]) == 1
    assert check_pullback(d, decl).passed
    assert check_decl(d, g, ProductDecl("zero", ())).passed


def test_pullback_empty_leg():
    g, decl = customers_world()
    d = key_diagram(
        {"cust": ["c1"], "wealthy": [], "loyal": ["l1"], "both": []},
        {"iw": {}, "il": {"l1": "c1"}, "qw": {}, "ql": {}},
    )
    d = synthesize(decl, d)
    assert d.sets["both"] == frozenset()
    assert check_pullback(d, decl).passed


def test_coproduct_disjoint_and_duck(duck_spec, duck_data):
    res = check_coproduct(duck_data, duck_spec.sketch[0])
    assert res.passed
    assert "inas_flyer:duck" in duck_data.sets["creature"]
    assert "inas_swimmer:duck" in duck_data.sets["creature"]
    # disjoint person-or-cat style coproduct without tags also passes
    g = Graph(
        types=(TypeNode("person", "a person"), TypeNode("cat", "a cat"),
               TypeNode("pc", "a person or a cat")),
        aspects=(Aspect("ip", "person", "pc", "is"), Aspect("ic", "cat", "pc", "is")),
    )
    decl = CoproductDecl("pc", (("person", "ip"), ("cat", "ic")))
    d = key_diagram(
        {"person": ["alice"], "cat": ["tom"], "pc": ["alice", "tom"]},
        {"ip": {"alice": "alice"}, "ic": {"tom": "tom"}},
    )
    assert check_coproduct(d, decl).passed


def test_coproduct_overlap_witness():
    g = Graph(
        types=(TypeNode("A", "a flyer"), TypeNode("B", "a swimmer"),
               TypeNode("C", "a flyer or a swimmer")),
        aspects=(Aspect("ia", "A", "C", "is"), Aspect("ib", "B", "C", "is")),
    )
    decl = CoproductDecl("C", (("A", "ia"), ("B", "ib")))
    d = key_diagram(
        {"A": ["duck"], "B": ["duck"], "C": ["duck"]},
        {"ia": {"duck": "duck"}, "ib": {"duck": "duck"}},
    )
    res = check_coproduct(d, decl)
    assert not res.passed and "hit by both" in res.witness


def test_zero_summand_coproduct_is_empty():
    decl = CoproductDecl("E", ())
    assert check_coproduct(key_diagram({"E": []}, {}), decl).passed
    res = check_coproduct(key_diagram({"E": ["ghost"]}, {}), decl)
    assert not res.passed
    res = check_decl(key_diagram({"E": []}, {}), Graph(), decl)
    assert res.passed and res.kind == "empty"


def shoulder_world():
    g = Graph(
        types=(
            TypeNode("sh", "a cell in the shoulder"),
            TypeNode("torso", "a cell in the torso"),
            TypeNode("arm", "a cell in the arm"),
            TypeNode("ta", "a cell in the torso or arm"),
        ),
        aspects=(
            Aspect("st", "sh", "torso", "is"),
            Aspect("sa", "sh", "arm", "is"),
            Aspect("it", "torso", "ta", "is"),
            Aspect("ia", "arm", "ta", "is"),
        ),
    )
    decl = PushoutDecl(
        "ta", ("torso", "it"), ("arm", "ia"),
        (Path("sh", ("st",)), Path("sh", ("sa",))),
    )
    return g, decl


def test_pushout_glues_shared_cells():
    g, decl = shoulder_world()
    d = key_diagram(
        {
            "sh": ["s1", "s2"],
            "torso": ["s1", "s2", "t1", "t2"],
            "arm": ["s1", "s2", "a1"],
            "ta": [],
        },
        {
            "st": {"s1": "s1", "s2": "s2"},
            "sa": {"s1": "s1", "s2": "s2"},
            "it": {},
            "ia": {},
        },
    )
    d = synthesize(decl, d)
    # |B| + |C| - |A| with injective legs
    assert len(d.sets["ta"]) == 4 + 3 - 2
    assert check_pushout(d, decl).passed
    assert d.funcs["it"]["s1"] == d.funcs["ia"]["s1"]


def test_pushout_empty_apex_is_coproduct():
    g, decl = shoulder_world()
    d = key_diagram(
        {"sh": [], "torso": ["t1"], "arm": ["a1"], "ta": []},
        {"st": {}, "sa": {}, "it": {}, "ia": {}},
    )
    d = synthesize(decl, d)
    assert d.sets["ta"] == frozenset({"init:t1", "inia:a1"})
    assert check_pushout(d, decl).passed


def test_pushout_collapses_math_courses():
    g = Graph(
        types=(
            TypeNode("math", "a college mathematics course"),
            TypeNode("course", "a college course"),
            TypeNode("phrase", "an utterance of a fixed phrase"),
            TypeNode("mix", "a college course up to hardness"),
        ),
        aspects=(
            Aspect("mc", "math", "course", "is"),
            Aspect("mp", "math", "phrase", "yields"),
            Aspect("ic", "course", "mix", "is"),
            Aspect("ip", "phrase", "mix", "is"),
        ),
    )
    decl = PushoutDecl(
        "mix", ("course", "ic"), ("phrase", "ip"),
        (Path("math", ("mc",)), Path("math", ("mp",))),
    )
    d = key_diagram(
        {
            "math": ["alg", "top"],
            "course": ["alg", "top", "art"],
            "phrase": ["too_hard"],
            "mix": [],
        },
        {
            "mc": {"alg": "alg", "top": "top"},
            "mp": {"alg": "too_hard", "top": "too_hard"},
            "ic": {},
            "ip": {},
        },
    )
    d = synthesize(decl, d)
    # alg, top, and the phrase all land in one class; art stays alone
    assert len(d.sets["mix"]) == 2
    assert d.funcs["ic"]["alg"] == d.funcs["ic"]["top"] == d.funcs["ip"]["too_hard"]
    assert check_pushout(d, decl).passed


def test_pushout_detects_bad_target():
    g, decl = shoulder_world()
    d = key_diagram(
        {
            "sh": ["s1"],
            "torso": ["s1"],
            "arm": ["s1"],
            "ta": ["x", "y"],
        },
        {
            "st": {"s1": "s1"},
            "sa": {"s1": "s1"},
            "it": {"s1": "x"},
            "ia": {"s1": "y"},
        },
    )
    res = check_pushout(d, decl)
    assert not res.passed and "distinct targets" in res.witness


def test_pushout_names_the_first_class_on_a_shared_target():
    g, decl = shoulder_world()
    sets = {"sh": ["s1"], "torso": ["s1", "t1"], "arm": ["s1", "a1"], "ta": ["x", "y", "z"]}
    funcs = {"st": {"s1": "s1"}, "sa": {"s1": "s1"}}
    # classes in rep order: inia:a1, inia:s1 (glued to init:s1), init:t1
    d = key_diagram(sets, {**funcs, "it": {"s1": "x", "t1": "y"}, "ia": {"s1": "x", "a1": "y"}})
    res = check_pushout(d, decl)
    assert not res.passed
    assert res.witness == "distinct classes 'inia:a1' and 'init:t1' both map to 'y'"
    d = key_diagram(sets, {**funcs, "it": {"s1": "x", "t1": "y"}, "ia": {"s1": "x", "a1": "x"}})
    res = check_pushout(d, decl)
    assert res.witness == "distinct classes 'inia:a1' and 'inia:s1' both map to 'x'"
    d = key_diagram(sets, {**funcs, "it": {"s1": "x", "t1": "y"}, "ia": {"s1": "x", "a1": "z"}})
    assert check_pushout(d, decl).passed
    d = key_diagram(
        {**sets, "ta": ["x", "y", "z", "w"]},
        {**funcs, "it": {"s1": "x", "t1": "y"}, "ia": {"s1": "x", "a1": "z"}},
    )
    res = check_pushout(d, decl)
    assert res.witness == "target key 'w' is not reached from either leg"


def test_injective_surjective_checks():
    g = Graph(
        types=(TypeNode("woman", "a woman"), TypeNode("person", "a person")),
        aspects=(
            Aspect("is_p", "woman", "person", "is", frozenset({"injective"})),
            Aspect("father", "person", "person", "has as father"),
        ),
    )
    d = key_diagram(
        {"woman": ["eve", "mary"], "person": ["eve", "mary", "cain", "abel"]},
        {
            "is_p": {"eve": "eve", "mary": "mary"},
            "father": {k: "cain" for k in ("eve", "mary", "cain", "abel")},
        },
    )
    assert check_injective(d, g, "is_p").passed
    res = check_injective(d, g, "father")
    assert not res.passed and "share the image" in res.witness
    res2 = check_surjective(d, g, "father")
    assert not res2.passed and "never hit" in res2.witness
    # identity is both
    gid = Graph(
        types=(TypeNode("x", "a thing"),),
        aspects=(Aspect("idx", "x", "x", "is"),),
    )
    did = key_diagram({"x": ["1", "2"]}, {"idx": {"1": "1", "2": "2"}})
    assert check_injective(did, gid, "idx").passed
    assert check_surjective(did, gid, "idx").passed


def test_check_all_checks_each_declared_modifier():
    g = Graph(
        types=(TypeNode("a", "an a"), TypeNode("b", "a b")),
        aspects=(
            Aspect("f", "a", "b", "has", frozenset({"injective"})),
            Aspect("g", "a", "b", "has", frozenset({"surjective"})),
            Aspect("h", "a", "b", "has"),
        ),
    )
    spec = Specification(graph=g)
    sets = {"a": ["1", "2"], "b": ["x", "y"]}
    onto = {"1": "x", "2": "y"}
    d = key_diagram(sets, {"f": onto, "g": onto, "h": {"1": "x", "2": "x"}})
    assert check_all(d, spec) == [
        CheckResult("injective", "f", True),
        CheckResult("surjective", "g", True),
    ]
    collapsed = {"1": "x", "2": "x"}
    d = key_diagram(sets, {"f": collapsed, "g": collapsed, "h": onto})
    assert check_all(d, spec) == [
        CheckResult("injective", "f", False, "keys '1' and '2' share the image 'x'"),
        CheckResult("surjective", "g", False, "target key 'y' is never hit"),
    ]


def father_image_world():
    g = Graph(
        types=(
            TypeNode("child", "a child"),
            TypeNode("pairwm", "a pair (w,m) where w is a woman and m is a man"),
            TypeNode("father", "a father"),
            TypeNode("man", "a man"),
        ),
        aspects=(
            Aspect("par", "child", "pairwm", "has as parents"),
            Aspect("m", "pairwm", "man", "yields the man"),
            Aspect("fs", "child", "father", "has as father"),
            Aspect("fi", "father", "man", "is"),
        ),
    )
    decl = ImageDecl("father", Path("child", ("par", "m")), "fs", "fi")
    return g, decl


def test_image_of_fathers():
    g, decl = father_image_world()
    d = key_diagram(
        {
            "child": ["cain", "abel", "seth"],
            "pairwm": ["(eve,adam)", "(ruth,boaz)"],
            "father": [],
            "man": ["adam", "boaz", "enoch"],
        },
        {
            "par": {"cain": "(eve,adam)", "abel": "(eve,adam)", "seth": "(ruth,boaz)"},
            "m": {"(eve,adam)": "adam", "(ruth,boaz)": "boaz"},
            "fs": {},
            "fi": {},
        },
    )
    d = synthesize(decl, d)
    assert d.sets["father"] == frozenset({"adam", "boaz"})  # enoch is nobody's father
    assert check_image(d, g, decl).passed


def test_image_of_injective_map_is_iso():
    g = Graph(
        types=(TypeNode("a", "a source"), TypeNode("im", "an image"),
               TypeNode("b", "a target")),
        aspects=(Aspect("f", "a", "b", "maps to"),
                 Aspect("fs", "a", "im", "maps onto"),
                 Aspect("fi", "im", "b", "is")),
    )
    decl = ImageDecl("im", Path("a", ("f",)), "fs", "fi")
    d = key_diagram(
        {"a": ["1", "2"], "im": [], "b": ["x", "y", "z"]},
        {"f": {"1": "x", "2": "y"}, "fs": {}, "fi": {}},
    )
    d = synthesize(decl, d)
    assert len(d.sets["im"]) == len(d.sets["a"])
    assert check_image(d, g, decl).passed


def test_image_check_failure_modes():
    g, decl = father_image_world()
    d = key_diagram(
        {
            "child": ["cain"],
            "pairwm": ["(eve,adam)"],
            "father": ["adam", "stranger"],
            "man": ["adam", "stranger"],
        },
        {
            "par": {"cain": "(eve,adam)"},
            "m": {"(eve,adam)": "adam"},
            "fs": {"cain": "adam"},
            "fi": {"adam": "adam", "stranger": "stranger"},
        },
    )
    res = check_image(d, g, decl)
    assert not res.passed  # fs is not surjective onto the declared image type


def test_synthesize_refuses_populated_target():
    _, decl = two_factor_world()
    d = key_diagram({"A": ["1"], "B": ["x"], "P": ["junk"]}, {"pa": {"junk": "1"}, "pb": {"junk": "x"}})
    with pytest.raises(SynthesisError):
        synthesize(decl, d)


def test_validate_decls_catches_misdirected_projection():
    g, decl = two_factor_world()
    bad = ProductDecl("P", (("A", "pb"), ("B", "pa")))
    spec = Specification(graph=g, sketch=(bad,))
    assert validate_decls(spec)


def test_decl_errors_checks_one_declaration():
    g, decl = customers_world()
    assert decl_errors(g, decl) == []
    bad = PullbackDecl(
        "both", ("wealthy", "ql"), ("loyal", "qw"),
        (Path("loyal", ("il",)), Path("wealthy", ("iw",))),
    )
    assert decl_errors(g, bad) == [
        "PullbackDecl on 'both': projection 'ql' must run both -> wealthy, it runs both -> loyal",
        "PullbackDecl on 'both': projection 'qw' must run both -> loyal, it runs both -> wealthy",
        "PullbackDecl on 'both': path il must start at 'wealthy'",
        "PullbackDecl on 'both': path iw must start at 'loyal'",
    ]
    spec = Specification(graph=g, sketch=(decl, bad))
    assert validate_decls(spec) == decl_errors(g, bad)
    image = ImageDecl("both", Path("wealthy", ("iw",)), "ql", "qw")
    assert decl_errors(g, image) == [
        "ImageDecl on 'both': surjection part must run wealthy -> both, it runs both -> loyal",
        "ImageDecl on 'both': injection part must run both -> cust, it runs both -> wealthy",
    ]


def test_decl_errors_with_unknown_target_still_checks_the_rest():
    g, decl = customers_world()
    bad = PullbackDecl(
        "nowhere", ("wealthy", "ql"), ("loyal", "qw"),
        (Path("loyal", ("il",)), Path("loyal", ("il",))),
    )
    assert decl_errors(g, bad) == [
        "PullbackDecl on 'nowhere': unknown type 'nowhere'",
        "PullbackDecl on 'nowhere': path il must start at 'wealthy'",
    ]
    pushout = PushoutDecl(
        "nowhere", ("wealthy", "nope"), ("loyal", "qw"),
        (Path("both", ("qw",)), Path("loyal", ())),
    )
    assert decl_errors(g, pushout) == [
        "PushoutDecl on 'nowhere': unknown type 'nowhere'",
        "PushoutDecl on 'nowhere': unknown aspect 'nope'",
        "PushoutDecl on 'nowhere': span paths start at different types",
    ]
    image = ImageDecl("nowhere", Path("both", ("zz",)), "qw", "il")
    assert decl_errors(g, image) == [
        "ImageDecl on 'nowhere': unknown type 'nowhere'",
        "ImageDecl on 'nowhere': unknown aspect 'zz'",
    ]


def test_missing_square_fact_skips_unusable_declarations():
    g, decl = customers_world()
    broken = PullbackDecl("both", ("wealthy", "nope"), ("loyal", "ql"), decl.cospan)
    spec = Specification(graph=g, sketch=(broken,))
    assert missing_square_facts(spec) == []


def test_missing_square_fact_lint_and_presence():
    g, decl = customers_world()
    spec = Specification(graph=g, sketch=(decl,))
    assert any("commuting fact" in m for m in missing_square_facts(spec))
    square = Fact(Path("both", ("qw", "iw")), Path("both", ("ql", "il")))
    spec2 = Specification(graph=g, facts=(square,), sketch=(decl,))
    assert missing_square_facts(spec2) == []


def one_aspect_for_two_parts():
    """Each kind of declaration with one aspect named for two of its parts."""
    g = Graph(
        types=(TypeNode("a", "an a"), TypeNode("c", "a c"), TypeNode("p", "a p")),
        aspects=(
            Aspect("e", "a", "a", "is"),
            Aspect("i", "a", "c", "is"),
            Aspect("q", "p", "a", "has"),
        ),
    )
    e = Path("a", ("e",))
    return g, {
        "product": (ProductDecl("p", (("a", "q"), ("a", "q"))), "q"),
        "pullback": (PullbackDecl("p", ("a", "q"), ("a", "q"), (e, e)), "q"),
        "coproduct": (CoproductDecl("c", (("a", "i"), ("a", "i"))), "i"),
        "pushout": (PushoutDecl("c", ("a", "i"), ("a", "i"), (e, e)), "i"),
        "image": (ImageDecl("a", e, "e", "e"), "e"),
    }


@pytest.mark.parametrize("kind", ["product", "pullback", "coproduct", "pushout", "image"])
def test_decl_errors_rejects_one_aspect_for_two_parts(kind):
    g, decls = one_aspect_for_two_parts()
    decl, aid = decls[kind]
    ctx = f"{type(decl).__name__} on '{decl.target}'"
    want = [f"{ctx}: aspect '{aid}' is used for more than one part"]
    assert decl_errors(g, decl) == want
    assert validate_decls(Specification(graph=g, sketch=(decl,))) == want


def test_one_aspect_for_two_parts_cannot_be_synthesized():
    # Why the declaration is rejected: its synthesis could never pass its check.
    g, decls = one_aspect_for_two_parts()
    d = key_diagram({"a": ["1", "2"], "c": [], "p": []}, {"e": {"1": "1", "2": "2"}})
    product = check_decl(synthesize(decls["product"][0], d), g, decls["product"][0])
    assert product.witness == "duplicated tuple ('1', '1') from keys '(1,1)' and '(2,1)'"
    coproduct = check_decl(synthesize(decls["coproduct"][0], d), g, decls["coproduct"][0])
    assert coproduct.witness == "target key 'ini:1' is hit by both 'i' and 'i'"


# --- mediating aspects -------------------------------------------------------


def furniture_world():
    g = Graph(
        types=(
            TypeNode("furn", "a piece of furniture"),
            TypeNode("slot", "a space in the house"),
            TypeNode("pairfs", "a pair (f,s) of a piece of furniture and a space"),
            TypeNode("width", "a width"),
            TypeNode("pairww", "a pair of widths"),
        ),
        aspects=(
            Aspect("pf", "pairfs", "furn", "yields the furniture"),
            Aspect("ps", "pairfs", "slot", "yields the space"),
            Aspect("wf", "furn", "width", "has"),
            Aspect("ws", "slot", "width", "has"),
            Aspect("w1", "pairww", "width", "yields the first width"),
            Aspect("w2", "pairww", "width", "yields the second width"),
        ),
    )
    pair_decl = ProductDecl("pairfs", (("furn", "pf"), ("slot", "ps")))
    widths_decl = ProductDecl("pairww", (("width", "w1"), ("width", "w2")))
    return g, pair_decl, widths_decl


def test_mediating_aspect_for_width_pairs():
    g, pair_decl, widths_decl = furniture_world()
    spec = Specification(graph=g, sketch=(pair_decl, widths_decl))
    cone = (Path("pairfs", ("pf", "wf")), Path("pairfs", ("ps", "ws")))
    spec2, mediator, new_facts = derive_mediating_aspect(
        spec, "pairfs", cone, widths_decl, "widths", bound=3
    )
    assert mediator.src == "pairfs" and mediator.tgt == "pairww"
    assert new_facts == (
        Fact(cone[0], Path("pairfs", ("widths", "w1"))),
        Fact(cone[1], Path("pairfs", ("widths", "w2"))),
    )
    # instance semantics: the mediator lands on the synthesized tuple keys
    d = key_diagram(
        {"furn": ["desk"], "slot": ["nook"], "width": ["30", "36"],
         "pairfs": [], "pairww": []},
        {"wf": {"desk": "30"}, "ws": {"nook": "36"},
         "pf": {}, "ps": {}, "w1": {}, "w2": {}},
    )
    d = synthesize(pair_decl, d)
    d = synthesize(widths_decl, d)
    d = populate_mediator(d, "widths", "pairfs", cone)
    assert d.funcs["widths"]["(desk,nook)"] == "(30,36)"
    report = satisfies_spec(d, Specification(graph=spec2.graph, facts=new_facts))
    assert report.satisfied


def test_mediating_identity_cone_behaves_as_identity():
    g, pair_decl, _ = furniture_world()
    spec = Specification(graph=g, sketch=(pair_decl,))
    cone = (Path("pairfs", ("pf",)), Path("pairfs", ("ps",)))
    spec2, mediator, facts = derive_mediating_aspect(
        spec, "pairfs", cone, pair_decl, "selfpair", bound=3
    )
    d = key_diagram(
        {"furn": ["desk", "sofa"], "slot": ["nook"], "pairfs": []},
        {"pf": {}, "ps": {}},
    )
    d = synthesize(pair_decl, d)
    d = populate_mediator(d, "selfpair", "pairfs", cone)
    for key in d.sets["pairfs"]:
        assert d.funcs["selfpair"][key] == key


def test_mediating_aspect_refuses_a_bad_cone():
    g, pair_decl, _ = furniture_world()
    spec = Specification(graph=g, sketch=(pair_decl,))
    pf = Path("pairfs", ("pf",))
    for cone, why in (
        ((pf,), "cone has 1 paths for 2 factors"),
        ((pf, Path("pairfs", ("nope",))), "unknown aspect 'nope'"),
        ((pf, pf), "cone path pf must run pairfs -> slot"),
    ):
        with pytest.raises(SketchError) as exc:
            derive_mediating_aspect(spec, "pairfs", cone, pair_decl, "med", bound=3)
        assert str(exc.value) == why


def test_mediating_aspect_cannot_be_named_Id():
    g, pair_decl, _ = furniture_world()
    spec = Specification(graph=g, sketch=(pair_decl,))
    cone = (Path("pairfs", ("pf",)), Path("pairfs", ("ps",)))
    with pytest.raises(SketchError, match="^'Id' names the key column and cannot be an aspect id$"):
        derive_mediating_aspect(spec, "pairfs", cone, pair_decl, "Id", bound=3)


@pytest.mark.parametrize("aspect_id", ["type", "a b", "furn", "pf"])
def test_mediating_aspect_refuses_an_id_the_reader_refuses(aspect_id):
    g, pair_decl, _ = furniture_world()
    spec = Specification(graph=g, sketch=(pair_decl,))
    cone = (Path("pairfs", ("pf",)), Path("pairfs", ("ps",)))
    [why, *_] = id_errors("aspect", aspect_id, {"furn", "pf"})
    with pytest.raises(SketchError) as exc:
        derive_mediating_aspect(spec, "pairfs", cone, pair_decl, aspect_id, bound=3)
    assert str(exc.value) == why


@pytest.mark.parametrize("aspect_id", ["selfpair", "Id_2", "types"])
def test_mediating_aspect_gives_an_olog_the_reader_reads_back(aspect_id):
    from olog.dsl import parse_olog, print_olog

    g, pair_decl, _ = furniture_world()
    spec = Specification(graph=g, sketch=(pair_decl,))
    cone = (Path("pairfs", ("pf",)), Path("pairfs", ("ps",)))
    spec2, _, _ = derive_mediating_aspect(spec, "pairfs", cone, pair_decl, aspect_id, bound=3)
    assert validate_specification(spec2) == []
    assert parse_olog(print_olog(spec2))[0] == spec2


def test_mediating_pullback_rejects_noncommuting_cone():
    g, decl = customers_world()
    square = Fact(Path("both", ("qw", "iw")), Path("both", ("ql", "il")))
    g2 = Graph(
        types=g.types + (TypeNode("x", "a probe"),),
        aspects=g.aspects + (
            Aspect("xw", "x", "wealthy", "has"),
            Aspect("xl", "x", "loyal", "has"),
        ),
    )
    spec = Specification(graph=g2, facts=(square,), sketch=(decl,))
    cone = (Path("x", ("xw",)), Path("x", ("xl",)))
    with pytest.raises(SketchError) as exc:
        derive_mediating_aspect(spec, "x", cone, decl, "med", bound=4)
    assert "does not commute" in str(exc.value)
    # declaring the commuting fact makes it acceptable
    commuting = Fact(Path("x", ("xw", "iw")), Path("x", ("xl", "il")))
    spec_ok = Specification(graph=g2, facts=(square, commuting), sketch=(decl,))
    spec3, mediator, facts = derive_mediating_aspect(
        spec_ok, "x", cone, decl, "med", bound=4
    )
    assert mediator.tgt == "both"


# --- randomized synthesize-then-check and size laws --------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_synthesize_then_check_randomized(kind):
    rng = random.Random(f"synth-{kind}")
    for _ in range(40):
        g, decl, d = random_world(rng, kind)
        full = synthesize(decl, d)
        res = check_decl(full, g, decl)
        assert res.passed, (kind, res.witness)


def test_product_and_coproduct_sizes():
    rng = random.Random("sizes")
    for _ in range(40):
        g, decl, d = random_world(rng, "product")
        full = synthesize(decl, d)
        expect = 1
        for tid, _ in decl.factors:
            expect *= len(d.sets[tid])
        assert len(full.sets["T"]) == expect
    for _ in range(40):
        g, decl, d = random_world(rng, "coproduct")
        full = synthesize(decl, d)
        assert len(full.sets["T"]) == sum(len(d.sets[t]) for t, _ in decl.summands)


def test_pullback_agrees_with_bruteforce_filter():
    rng = random.Random("pb-oracle")
    for _ in range(40):
        g, decl, d = random_world(rng, "pullback")
        full = synthesize(decl, d)
        want = {
            (b, c)
            for b in d.sets["B"]
            for c in d.sets["C"]
            if d.funcs["f"][b] == d.funcs["g"][c]
        }
        got = {(full.funcs["qb"][k], full.funcs["qc"][k]) for k in full.sets["T"]}
        assert got == want and len(full.sets["T"]) == len(want)


def test_pushout_agrees_with_bruteforce_quotient():
    rng = random.Random("po-oracle")
    for _ in range(40):
        g, decl, d = random_world(rng, "pushout")
        full = synthesize(decl, d)
        # independent quotient: iterate merging over pairs
        classes = [{("B", b)} for b in d.sets["B"]] + [{("C", c)} for c in d.sets["C"]]
        for a in d.sets["A"]:
            fb, gc = ("B", d.funcs["f"][a]), ("C", d.funcs["g"][a])
            touching = [cl for cl in classes if fb in cl or gc in cl]
            merged = set().union(*touching) | {fb, gc}
            classes = [cl for cl in classes if cl not in touching] + [merged]
        assert len(full.sets["T"]) == len(classes)
