"""The library surface that no run reaches, pinned to the claims it backs.

A top-level function, class or method of ``src/`` is unreached when its name
appears as a code token nowhere in ``src/``, ``perfbench/`` or ``tools/``
except at its own definitions.  Each such name must back a paper statement or
an acceptance criterion, listed in ``CLAIMS``.  A new library-only name fails
here until a run reaches it or it is added to ``CLAIMS`` with its claim.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLAIMS = {
    "covering.is_abundant": "free-site abundance",
    "hs.hnorm": "acceptance 10: Helffer-Sjostrand moment bound",
    "hs.hs_moment": "acceptance 10: Helffer-Sjostrand moment",
    "hs.hs_reconstruct": "acceptance 10: Helffer-Sjostrand reconstruction",
    "ids.free_ids_weyl": "acceptance 11: IDS sanity",
    "model.SingleSiteDistribution.is_degenerate": "model hypothesis: non-degenerate law",
    "model.SingleSiteDistribution.normalized_support": "model hypothesis: support hull [0, 1]",
    "msa.reduced_spectrum": "acceptance 08: reduced spectrum",
    "observables.fermi_kernel_decay": "decay of Fermi projections",
    "observables.localization_center": "exponential decay about a centre",
    "observables.w_caps": "acceptance 07: W-functional caps",
    "percolation.PercolationGraph.vertices": "acceptance 09: bad-cluster extraction",
    "percolation.bad_cluster": "acceptance 09: bad-cluster extraction",
    "qucp.carleman_constant": "acceptance 12: Carleman weight sandwich",
    "qucp.carleman_ratio": "the Carleman estimate behind QUCP",
}


def _definitions():
    """``(module.qualname, name)`` of every top-level function and class of
    ``src/andlab`` and of every non-dunder method of those classes."""
    package = ROOT / "src" / "andlab"
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not (
                            sub.name.startswith("__") and sub.name.endswith("__")):
                        yield f"{module}.{node.name}.{sub.name}", sub.name


def unreached() -> set:
    tokens = Counter()
    for folder in ("src", "perfbench", "tools"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tokens.update(tok.string for tok in
                          tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
                          if tok.type == tokenize.NAME)
    definitions = list(_definitions())
    defined = Counter(name for _, name in definitions)
    return {qualname for qualname, name in definitions if tokens[name] <= defined[name]}


def test_unreached_names_are_the_claimed_ones():
    assert unreached() == set(CLAIMS)
