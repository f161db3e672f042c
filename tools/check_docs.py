#!/usr/bin/env python3
"""Markdown link and config-key checker for the repo's documentation.

Usage:
    check_docs.py [FILE_OR_DIR ...]      # default: README.md docs/

Checks every `[text](target)` and bare `(path/to/file.md)` style markdown
link in the given files (directories are scanned for *.md):
  - relative links must resolve to an existing file or directory,
    relative to the file containing the link;
  - intra-document anchors (#section) must match a heading in the target
    file (github slug rules, simplified);
  - http(s)/mailto links are not fetched (CI must not depend on the
    network) — they are only reported with --list-external.

Also round-trips documented config keys against the registry in
src/sim/config_kv.cpp: any inline-code token that looks like a dotted
config key (`phy.model`, `traffic.rate_pps=200`, ...) and lives in a
namespace the registry defines must be a registered key, so renaming or
removing a key cannot leave stale documentation behind. Tokens outside the
registry's namespaces (module paths, file names) are ignored.

Exit status 1 when any relative link is broken or any documented config
key is unknown, listing every failure.
"""

import argparse
import pathlib
import re
import sys

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
CODE_FENCE_RE = re.compile(r"^\s*(```|~~~)")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")

# A dotted lowercase token that could be a config key: `phy.model`,
# `highway.idm.desired_speed`, optionally with an `=value` suffix.
KEY_TOKEN_RE = re.compile(r"[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+")

# Registration patterns in config_kv.cpp: the field-factory helpers plus
# direct `f.key = "...";` assignments for the hand-rolled fields.
CONFIG_KEY_DEF_RE = re.compile(
    r'(?:num|numeric_field|checked_field|seconds|seconds_field|string_field|'
    r'enum_field|simtime_field)'
    r'\(\s*"([a-z0-9_.]+)"'
    r'|f\.key\s*=\s*"([a-z0-9_.]+)"'
)

# Dotted tokens ending in a file suffix are file names, not config keys
# (`traffic.cpp` is a source file even though `traffic` is a key namespace).
FILE_SUFFIXES = {
    "c", "cc", "cpp", "h", "hpp", "py", "md", "txt", "csv", "json", "yml",
    "yaml", "sh", "cmake", "html", "js",
}


def github_slug(heading):
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def headings_of(path):
    slugs = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence and line.startswith("#"):
            slugs.add(github_slug(line.lstrip("#")))
    return slugs


def links_of(path):
    in_fence = False
    for line_no, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK_RE.finditer(line):
            yield line_no, m.group(1)


def config_keys_of(path):
    """The set of config keys registered in config_kv.cpp."""
    keys = set()
    for m in CONFIG_KEY_DEF_RE.finditer(path.read_text(encoding="utf-8")):
        keys.add(m.group(1) or m.group(2))
    return keys


def config_key_refs_of(path):
    """Yield (line_no, token) for inline-code tokens shaped like config keys.

    Splits each `code span` on whitespace so `--set phy.model=nakagami`
    yields `phy.model`; `=value` suffixes are stripped, file names are
    dropped via FILE_SUFFIXES.
    """
    in_fence = False
    for line_no, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for span in CODE_SPAN_RE.finditer(line):
            for raw in span.group(1).split():
                token = raw.partition("=")[0]
                if not KEY_TOKEN_RE.fullmatch(token):
                    continue
                if token.rsplit(".", 1)[1] in FILE_SUFFIXES:
                    continue
                yield line_no, token


def check_config_keys(files, config_kv):
    """Return (refs_checked, failures) for documented-key round-tripping.

    Only tokens whose first dotted component is a namespace the registry
    actually defines are held to the round-trip rule; everything else
    (`json.dumps` in an example, a module path) is out of scope.
    """
    keys = config_keys_of(config_kv)
    namespaces = {k.split(".", 1)[0] for k in keys if "." in k}
    failures = []
    refs = 0
    for md in files:
        for line_no, token in config_key_refs_of(md):
            if token.split(".", 1)[0] not in namespaces:
                continue
            refs += 1
            if token not in keys:
                failures.append(
                    f"{md}:{line_no}: config key '{token}' is not "
                    f"registered in {config_kv}"
                )
    return refs, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["README.md", "docs"])
    parser.add_argument("--list-external", action="store_true")
    parser.add_argument(
        "--config-kv",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent
            / "src" / "sim" / "config_kv.cpp"
        ),
        help="config registry to round-trip documented keys against "
        "(default: src/sim/config_kv.cpp next to this script)",
    )
    args = parser.parse_args()

    files = []
    for p in args.paths or ["README.md", "docs"]:
        path = pathlib.Path(p)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        elif path.exists():
            files.append(path)
        else:
            sys.exit(f"check_docs: no such file or directory: {p}")

    broken = []
    checked = 0
    for md in files:
        for line_no, target in links_of(md):
            where = f"{md}:{line_no}"
            if target.startswith(("http://", "https://", "mailto:")):
                if args.list_external:
                    print(f"external: {where}: {target}")
                continue
            checked += 1
            ref, _, anchor = target.partition("#")
            base = md.parent / ref if ref else md
            if ref and not base.exists():
                broken.append(f"{where}: missing target '{target}'")
                continue
            if anchor:
                if base.is_dir() or base.suffix.lower() != ".md":
                    continue  # anchors into non-markdown: not checkable
                if github_slug(anchor) not in headings_of(base):
                    broken.append(f"{where}: no heading for anchor '#{anchor}'")

    key_refs = 0
    config_kv = pathlib.Path(args.config_kv)
    if config_kv.exists():
        key_refs, key_failures = check_config_keys(files, config_kv)
        broken.extend(key_failures)
    else:
        print(f"check_docs: note: no {config_kv}, config-key check skipped")

    if broken:
        print("check_docs: broken links:", file=sys.stderr)
        for b in broken:
            print(f"  - {b}", file=sys.stderr)
        sys.exit(1)
    print(
        f"check_docs: {checked} relative link(s) and {key_refs} config-key "
        f"reference(s) across {len(files)} file(s) ok"
    )


if __name__ == "__main__":
    main()
