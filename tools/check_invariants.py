#!/usr/bin/env python3
"""Cross-artifact invariant checker for the feio tree.

The 1970 paper's bargain — the machine proves the input deck consistent
before the batch run burns money — applied to this repository's own
artifacts. Six contracts span source, docs and tooling, and every one has
historically drifted in some codebase or other because nothing failed when
it did. This checker makes the drift fail, in ctest and in CI's
static-analysis job:

  fault-sites      FEIO_FAULT("site") call sites  <->  the registered-site
                   table in src/util/fault.cc  <->  the fault-site table in
                   docs/ROBUSTNESS.md (## Fault injection)
  error-codes      every [EWN]-XXX-NNN diagnostic code in the sources
                   (including "E-RES-00"-style prefix builders)  <->  the
                   catalog in docs/DIAGNOSTICS.md
  observability    span / counter / histogram name literals  <->  the
                   catalogs in docs/OBSERVABILITY.md (wildcard rows like
                   `lint.rules.*` must still match something real)
  schema-versions  feio.report/N and feio.bench.*/N version strings in the
                   sources  <->  the families tools/check_report.py accepts
  lint-rules       L-XXX-NNN rule ids in src/lint/registry.cc  <->  the rule
                   tables in docs/LINTS.md (and stray ids elsewhere under
                   src/lint/ must be registered)
  text-writer      every artifact under src/ is written through the one
                   text writer (src/util/text.{h,cc}): no std::ostringstream,
                   std::stringstream or (v)s(n)printf in code outside it
                   (comments and string literals do not count;
                   src/scenarios/solver_bench.cc is exempt until it goes)

Usage:
  check_invariants.py [--root DIR]            check the tree (exit 1 on drift)
  check_invariants.py --fix-docs [--root DIR] also print the missing doc rows
  check_invariants.py --self-test [--root DIR]
                   run every check against the seeded-violation fixture tree
                   (tests/invariants_fixtures/<check>/) and fail unless each
                   fixture trips its check — the checker checking itself.

Registering something new without tripping this: see docs/LINTS.md,
"Source-level invariants".
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Scanning helpers.

SOURCE_EXTS = (".cc", ".h")


def source_files(root):
    """Every C++ file under src/ and tools/, sorted for stable output."""
    out = []
    for top in ("src", "tools"):
        base = os.path.join(root, top)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def maybe_read(path):
    return read(path) if os.path.isfile(path) else ""


def rel(root, path):
    return os.path.relpath(path, root)


def scan(root, pattern):
    """(relpath, match) for every regex match in every source file."""
    rx = re.compile(pattern)
    hits = []
    for path in source_files(root):
        text = read(path)
        for m in rx.finditer(text):
            hits.append((rel(root, path), m.group(1)))
    return hits


def doc_section(text, heading):
    """The body of one '## heading...' section (to the next '## ' or EOF).

    The heading is matched as a prefix, so "Fault injection" finds
    "## Fault injection (`E-RES-006`)".
    """
    m = re.search(rf"^## {re.escape(heading)}[^\n]*$(.*?)(?=^## |\Z)",
                  text, re.M | re.S)
    return m.group(1) if m else ""


def table_cells(section, cell_index=0):
    """Backticked tokens from one cell of every data row in a section."""
    tokens = []
    for line in section.splitlines():
        line = line.strip()
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if cell_index >= len(cells):
            continue
        cell = cells[cell_index]
        if set(cell) <= {"-", " ", ":"}:  # the |---|---| separator row
            continue
        tokens.extend(re.findall(r"`([^`]+)`", cell))
    return tokens


class Violation:
    def __init__(self, check, message, doc=None, fix_row=None):
        self.check = check
        self.message = message
        self.doc = doc          # doc file a --fix-docs row belongs in
        self.fix_row = fix_row  # suggested markdown table row, or None


# --------------------------------------------------------------------------
# Check 1: fault sites.

def check_fault_sites(root):
    v = []
    calls = scan(root, r'FEIO_FAULT\(\s*"([^"]+)"')
    call_sites = {site for _p, site in calls}

    fault_cc = maybe_read(os.path.join(root, "src", "util", "fault.cc"))
    m = re.search(r"kSites\s*=\s*\{(.*?)\};", fault_cc, re.S)
    registry = re.findall(r'"([^"]+)"', m.group(1)) if m else []
    reg_set = set(registry)

    robustness = maybe_read(os.path.join(root, "docs", "ROBUSTNESS.md"))
    documented = set(table_cells(doc_section(robustness, "Fault injection")))

    for path, site in sorted(set(calls)):
        if site not in reg_set:
            v.append(Violation(
                "fault-sites",
                f'FEIO_FAULT("{site}") at {path} is not in the kSites '
                "registry in src/util/fault.cc"))
    for site in sorted(reg_set - call_sites):
        v.append(Violation(
            "fault-sites",
            f'registered fault site "{site}" has no FEIO_FAULT call site'))
    for site in sorted(reg_set - documented):
        v.append(Violation(
            "fault-sites",
            f'fault site "{site}" is missing from the docs/ROBUSTNESS.md '
            "fault-injection table",
            doc="docs/ROBUSTNESS.md",
            fix_row=f"| `{site}` | TODO: what this site interrupts |"))
    for site in sorted(documented - reg_set):
        v.append(Violation(
            "fault-sites",
            f'docs/ROBUSTNESS.md documents fault site "{site}" which is not '
            "registered in src/util/fault.cc"))
    if registry != sorted(registry):
        v.append(Violation(
            "fault-sites",
            "the kSites registry in src/util/fault.cc is not sorted"))
    return v


# --------------------------------------------------------------------------
# Check 2: diagnostic codes.

CODE_RX = r"\b([EWN]-[A-Z]+-[0-9]{3})\b"
# A quoted string that is nothing but a truncated code: a prefix builder
# ("E-RES-00" + classification logic). Requires at least one documented
# expansion, else the branch it feeds is dead.
PREFIX_RX = r'"([EWN]-[A-Z]+-[0-9]{1,2})"'


def check_error_codes(root):
    v = []
    used = scan(root, CODE_RX)
    prefixes = scan(root, PREFIX_RX)

    diagnostics = maybe_read(os.path.join(root, "docs", "DIAGNOSTICS.md"))
    documented = set(re.findall(CODE_RX, diagnostics))

    for path, code in sorted(set(used)):
        if code not in documented:
            v.append(Violation(
                "error-codes",
                f"diagnostic code {code} ({path}) is not cataloged in "
                "docs/DIAGNOSTICS.md",
                doc="docs/DIAGNOSTICS.md",
                fix_row=f"| `{code}` | error | TODO: what this code means. |"))
    for path, prefix in sorted(set(prefixes)):
        if not any(code.startswith(prefix) for code in documented):
            v.append(Violation(
                "error-codes",
                f'code-prefix builder "{prefix}" ({path}) matches no '
                "documented code in docs/DIAGNOSTICS.md",
                doc="docs/DIAGNOSTICS.md",
                fix_row=f"| `{prefix}1` | error | TODO: the {prefix}x "
                        "family. |"))

    # Codes advertised in the README must exist in the catalog (the catalog
    # itself may legitimately document codes no longer emitted verbatim --
    # the E-RES family is constructed -- so the reverse direction is only
    # checked against prefixes).
    readme_codes = set(re.findall(CODE_RX,
                                  maybe_read(os.path.join(root, "README.md"))))
    for code in sorted(readme_codes - documented):
        v.append(Violation(
            "error-codes",
            f"README.md mentions {code}, which docs/DIAGNOSTICS.md does not "
            "catalog"))

    emitted = {code for _p, code in used}
    prefix_set = {p for _p, p in prefixes}
    for code in sorted(documented - emitted):
        if not any(code.startswith(p) for p in prefix_set):
            v.append(Violation(
                "error-codes",
                f"docs/DIAGNOSTICS.md catalogs {code}, which no source file "
                "emits or matches via a prefix builder"))
    return v


# --------------------------------------------------------------------------
# Check 3: observability names.

SPAN_PATTERNS = (
    r'FEIO_TRACE_SPAN\(\s*\w+\s*,\s*"([^"]+)"',
    r'FEIO_TRACE_SCOPE\(\s*"([^"]+)"',
    # lint's rule-family spans are opened through a wrapper class, not the
    # macro; the doc catalogs them under the `lint.rules.*` wildcard.
    r'RuleFamilyScope\s+\w+\s*\(\s*"([^"]+)"',
)


def names_match(doc_name, source_names):
    """A doc entry matches exactly, or as a trailing-`.*` wildcard."""
    if doc_name.endswith(".*"):
        prefix = doc_name[:-1]  # keep the trailing dot
        return any(s.startswith(prefix) for s in source_names)
    return doc_name in source_names


def doc_entry_for(source_name, doc_names):
    return any(
        (d.endswith(".*") and source_name.startswith(d[:-1])) or
        d == source_name
        for d in doc_names)


def check_observability(root):
    v = []
    spans = []
    for pattern in SPAN_PATTERNS:
        spans.extend(scan(root, pattern))
    counters = scan(root, r'FEIO_METRIC_ADD\(\s*"([^"]+)"')
    # Dynamic counters (FEIO_METRIC_ADD_DYN) take a literal name prefix plus
    # a runtime suffix; the captured prefix is what a `prefix.*` wildcard row
    # in the catalog documents.
    counters.extend(scan(root, r'FEIO_METRIC_ADD_DYN\(\s*"([^"]+)"'))
    histograms = scan(root, r'FEIO_METRIC_RECORD\(\s*"([^"]+)"')

    observability = maybe_read(os.path.join(root, "docs", "OBSERVABILITY.md"))
    doc_spans = set(table_cells(doc_section(observability, "Span catalog")))
    metric_section = doc_section(observability, "Metric catalog")
    split = metric_section.find("Histograms")
    doc_counters = set(table_cells(metric_section[:split]))
    doc_histograms = set(table_cells(metric_section[split:])) if split >= 0 \
        else set()

    kinds = (
        ("span", spans, doc_spans),
        ("counter", counters, doc_counters),
        ("histogram", histograms, doc_histograms),
    )
    for kind, hits, doc_names in kinds:
        source_names = {name for _p, name in hits}
        for path, name in sorted(set(hits)):
            if not doc_entry_for(name, doc_names):
                v.append(Violation(
                    "observability",
                    f'{kind} "{name}" ({path}) is missing from the '
                    "docs/OBSERVABILITY.md catalog",
                    doc="docs/OBSERVABILITY.md",
                    fix_row=f"| `{name}` | TODO: what this {kind} covers |"))
        for doc_name in sorted(doc_names):
            if not names_match(doc_name, source_names):
                v.append(Violation(
                    "observability",
                    f'docs/OBSERVABILITY.md catalogs {kind} "{doc_name}", '
                    "which no source file emits"))
    return v


# --------------------------------------------------------------------------
# Check 4: schema version strings.

SCHEMA_RX = r"\b(feio\.(?:report|bench\.[a-z_]+)/[0-9]+)\b"


def check_schemas(root):
    v = []
    used = scan(root, SCHEMA_RX)
    source_schemas = {s for _p, s in used}
    validator = maybe_read(os.path.join(root, "tools", "check_report.py"))
    accepted = set(re.findall(SCHEMA_RX, validator))

    for path, schema in sorted(set(used)):
        if schema not in accepted:
            v.append(Violation(
                "schema-versions",
                f'schema "{schema}" ({path}) is not accepted by '
                "tools/check_report.py"))
    for schema in sorted(accepted - source_schemas):
        v.append(Violation(
            "schema-versions",
            f'tools/check_report.py accepts schema "{schema}", which no '
            "source file emits"))
    return v


# --------------------------------------------------------------------------
# Check 5: lint rule ids.

LINT_RX = r"\b(L-[A-Z]+-[0-9]{3})\b"


def check_lint_rules(root):
    v = []
    registry_path = os.path.join(root, "src", "lint", "registry.cc")
    registered = set(re.findall(r'\{"(L-[A-Z]+-[0-9]{3})"',
                                maybe_read(registry_path)))
    documented = set(re.findall(LINT_RX,
                                maybe_read(os.path.join(root, "docs",
                                                        "LINTS.md"))))

    for rule in sorted(registered - documented):
        v.append(Violation(
            "lint-rules",
            f"lint rule {rule} (src/lint/registry.cc) is missing from "
            "docs/LINTS.md",
            doc="docs/LINTS.md",
            fix_row=f"| `{rule}` | error | TODO: what this rule checks. | "
                    "TODO: example |"))
    for rule in sorted(documented - registered):
        v.append(Violation(
            "lint-rules",
            f"docs/LINTS.md documents lint rule {rule}, which is not in "
            "src/lint/registry.cc"))

    # Stray ids: any L-code referenced under src/lint/ must be registered.
    lint_dir = os.path.join(root, "src", "lint")
    if os.path.isdir(lint_dir):
        for name in sorted(os.listdir(lint_dir)):
            if not name.endswith(SOURCE_EXTS):
                continue
            path = os.path.join(lint_dir, name)
            for rule in sorted(set(re.findall(LINT_RX, read(path)))):
                if rule not in registered:
                    v.append(Violation(
                        "lint-rules",
                        f"lint rule {rule} ({rel(root, path)}) is not in "
                        "src/lint/registry.cc"))
    return v


# --------------------------------------------------------------------------
# Check 6: one text writer.

TEXT_WRITER_FILES = ("src/util/text.h", "src/util/text.cc")
# The solver bench harness is slated for deletion with bench/ (ROADMAP
# item 4); it keeps its stream until then.
TEXT_WRITER_EXEMPT = ("src/scenarios/solver_bench.cc",)
STREAM_OR_PRINTF_RX = re.compile(
    r"\b(?:std::)?(o?stringstream|v?sn?printf)\b")
# Char literals, string literals and comments, blanked before the scan so a
# comment naming the old snprintf path is not a violation.
NON_CODE_RX = re.compile(
    r"'(?:\\.|[^'\\\n])*'|\"(?:\\.|[^\"\\\n])*\"|//[^\n]*|/\*.*?\*/", re.S)


def code_only(text):
    """`text` with comments and literals blanked, newlines and offsets kept."""
    return NON_CODE_RX.sub(
        lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)


def check_text_writer(root):
    v = []
    for path in source_files(root):
        relpath = rel(root, path).replace(os.sep, "/")
        if not relpath.startswith("src/"):
            continue
        if relpath in TEXT_WRITER_FILES or relpath in TEXT_WRITER_EXEMPT:
            continue
        code = code_only(read(path))
        for m in STREAM_OR_PRINTF_RX.finditer(code):
            line = code.count("\n", 0, m.start()) + 1
            v.append(Violation(
                "text-writer",
                f"{m.group(1)} at {relpath}:{line}: write artifact text "
                "through src/util/text.h (append_int, append_fixed, ...)"))
    return v


# --------------------------------------------------------------------------
# Driver.

CHECKS = {
    "fault-sites": check_fault_sites,
    "error-codes": check_error_codes,
    "observability": check_observability,
    "schema-versions": check_schemas,
    "lint-rules": check_lint_rules,
    "text-writer": check_text_writer,
}

# Fixture directory name -> the check its seeded violation must trip.
FIXTURE_CHECKS = {
    "cache_counter": "observability",
    "fault_site": "fault-sites",
    "error_code": "error-codes",
    "span_name": "observability",
    "schema_version": "schema-versions",
    "lint_rule": "lint-rules",
    "text_writer": "text-writer",
}


def run_checks(root, only=None):
    violations = []
    for name, check in CHECKS.items():
        if only is not None and name != only:
            continue
        violations.extend(check(root))
    return violations


def report(violations, fix_docs):
    for viol in violations:
        print(f"DRIFT [{viol.check}] {viol.message}")
    if fix_docs:
        by_doc = {}
        for viol in violations:
            if viol.fix_row:
                by_doc.setdefault(viol.doc, []).append(viol.fix_row)
        for doc in sorted(by_doc):
            print(f"\n--fix-docs: suggested rows for {doc}:")
            for row in by_doc[doc]:
                print(f"  {row}")
    n = len(violations)
    print(f"check_invariants: {n} violation{'s' if n != 1 else ''}")


def self_test(root, fixtures):
    """Each fixture seeds one violation class; its check must catch it."""
    ok = True
    for name in sorted(FIXTURE_CHECKS):
        fixture_root = os.path.join(fixtures, name)
        check = FIXTURE_CHECKS[name]
        if not os.path.isdir(fixture_root):
            print(f"SELF-TEST FAIL {name}: fixture directory missing "
                  f"({fixture_root})")
            ok = False
            continue
        violations = run_checks(fixture_root, only=check)
        if violations:
            print(f"self-test ok   {name}: [{check}] caught "
                  f"{len(violations)} seeded violation(s)")
        else:
            print(f"SELF-TEST FAIL {name}: [{check}] caught nothing in "
                  f"{fixture_root}")
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(
        description="feio cross-artifact invariant checker")
    parser.add_argument("--root", default=None,
                        help="repository root (default: the checker's "
                             "grandparent directory)")
    parser.add_argument("--fix-docs", action="store_true",
                        help="dry run: also print the missing doc table rows")
    parser.add_argument("--self-test", action="store_true",
                        help="run against the seeded-violation fixtures")
    parser.add_argument("--fixtures", default=None,
                        help="fixture tree for --self-test "
                             "(default: ROOT/tests/invariants_fixtures)")
    args = parser.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        fixtures = args.fixtures or os.path.join(root, "tests",
                                                 "invariants_fixtures")
        sys.exit(0 if self_test(root, fixtures) else 1)

    violations = run_checks(root)
    report(violations, args.fix_docs)
    sys.exit(1 if violations else 0)


if __name__ == "__main__":
    main()
