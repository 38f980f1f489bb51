"""The sorted-scan rewriting search that `ncalg.normal_form`'s lhs index and
heap replaced, kept for tests that compare the two selection orders: every
step sorts the live words by order key and tries every rule at every
position.  It reads `ncalg.ITERATION_CAP` at call time, as the library does."""

from qsphere import ncalg
from qsphere.ncalg import PRUNE_DEFAULT, NCPoly, RewriteCapError, word_name


def rule_for(pres, word):
    """First rule (priority order) matching in word, leftmost occurrence."""
    for rule in pres.rules:
        L = len(rule.lhs)
        if L > len(word):
            continue
        for i in range(len(word) - L + 1):
            if word[i:i + L] == rule.lhs:
                return rule, i
    return None


def normal_form(poly, pres):
    """Largest reducible word first; within a word, rules in priority
    order, leftmost occurrence."""
    terms = dict(poly.terms)
    steps = 0
    while True:
        hit = None
        for w in sorted(terms, key=pres.order_key, reverse=True):
            found = rule_for(pres, w)
            if found is not None:
                hit = (w, *found)
                break
        if hit is None:
            return NCPoly(terms)
        w, rule, i = hit
        steps += 1
        if steps > ncalg.ITERATION_CAP:
            raise RewriteCapError(
                f"iteration cap {ncalg.ITERATION_CAP} exceeded in {pres.name} "
                f"(stuck near {word_name(w)})")
        c = terms.pop(w)
        pre, suf = w[:i], w[i + len(rule.lhs):]
        for rw, rc in rule.rhs.items():
            nw = pre + rw + suf
            nc = terms.get(nw, 0.0) + c * rc
            if abs(nc) > PRUNE_DEFAULT:
                terms[nw] = nc
            elif nw in terms:
                del terms[nw]
