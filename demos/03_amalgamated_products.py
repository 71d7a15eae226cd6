#!/usr/bin/env python3
"""Amalgamated free products: normal forms, uniqueness, strong amalgamation.

Builds the free product of two copies of the cyclic 3-loop sharing only
their identity, reduces a few terms to normal form, decides by critical
pairs that every term has a unique normal form, and checks the strong
amalgamation property on several pushouts.
"""

from nquasi import (
    AmalgamElement,
    apply_op,
    build_amalgam,
    check_strong_amalgamation,
    check_unique_normal_forms,
    cyclic_loop,
    algebra_from_function,
    normalize_element,
    parse_element_term,
)


def banner(title):
    print()
    print("=" * 60)
    print(title)
    print("=" * 60)


def main():
    trivial = algebra_from_function("T", 2, "loop", ["0"], lambda a, b: 0, identity="0")
    diagram = build_amalgam(
        trivial,
        [cyclic_loop(3, name="Z3a"), cyclic_loop(3, name="Z3b")],
        [{"0": "0"}, {"0": "0"}],
    )

    banner("THE DIAGRAM")
    print("base carrier:   ", list(diagram.base.carrier))
    for factor in diagram.factors:
        print("factor %-5s =>  %s" % (factor.name, list(factor.carrier)))

    banner("NORMAL FORMS")
    for text in [
        "f(Z3a.1, Z3a.2)",            # collapses inside one factor
        "f(Z3a.1, Z3b.1)",            # genuinely mixed: already irreducible
        "g1(f(Z3a.1, Z3b.1), Z3b.1)", # a division cancels the product
        "f(e, f(Z3a.1, Z3b.1))",      # the identity absorbs
        "g1(0, 0)",
    ]:
        term = parse_element_term(diagram, text)
        print("%-30s ->  %s" % (text, normalize_element(diagram, term)))

    banner("THE AMALGAM IS ITSELF AN ALGEBRA OF THE VARIETY")
    alpha = AmalgamElement(parse_element_term(diagram, "f(Z3a.1, Z3b.1)"))
    beta = AmalgamElement(parse_element_term(diagram, "Z3b.2"))
    quotient = apply_op(diagram, "g1", [alpha, beta])
    print("alpha          =", alpha)
    print("g1(alpha,beta) =", quotient)
    print("f(g1(alpha,beta),beta) =", apply_op(diagram, "f", [quotient, beta]),
          " (cancellation holds)")

    banner("UNIQUE NORMAL FORMS, FOR EVERY TERM")
    verdict = check_unique_normal_forms(diagram)
    print("every term, decided by joining all critical pairs:",
          "unique" if verdict is None else verdict)

    banner("STRONG AMALGAMATION")
    report = check_strong_amalgamation(
        trivial,
        cyclic_loop(3, name="Z3a"),
        cyclic_loop(3, name="Z3b"),
        [{"0": "0"}, {"0": "0"}],
    )
    print(report)
    print("factor images meet in:", sorted(report.intersection))

    report = check_strong_amalgamation(
        cyclic_loop(2),
        cyclic_loop(4, name="Z4a"),
        cyclic_loop(4, name="Z4b"),
        [{"0": "0", "1": "2"}, {"0": "0", "1": "2"}],
    )
    print(report)
    print("factor images meet in:", sorted(report.intersection))


if __name__ == "__main__":
    main()
