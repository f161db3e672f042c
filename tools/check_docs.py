#!/usr/bin/env python3
"""Markdown link, config-key and CLI-flag checker for the repo's documentation.

Usage:
    check_docs.py [FILE_OR_DIR ...]      # default: README.md docs/
    check_docs.py README.md docs --cli ./build/vanet_cli

Checks every `[text](target)` and bare `(path/to/file.md)` style markdown
link in the given files (directories are scanned for *.md):
  - relative links must resolve to an existing file or directory,
    relative to the file containing the link;
  - intra-document anchors (#section) must match a heading in the target
    file (github slug rules, simplified);
  - http(s)/mailto links are not fetched (CI must not depend on the
    network) — they are only reported with --list-external.

With --cli, also round-trips documented config keys against the live
registry, the table `vanet_cli --keys` prints: any inline-code token that
looks like a dotted config key (`phy.model`, `traffic.rate_pps=200`, ...)
and lives in a namespace the registry defines must be a registered key, so
renaming or removing a key cannot leave stale documentation behind. Tokens
in a retired namespace (RETIRED_NAMESPACES: every key deleted, so the
registry no longer defines it) are held to the same rule. Other tokens
outside the registry's namespaces (module paths, file names) are ignored.
The same round trip holds documented flags to `vanet_cli --help`: every
`--flag` in an inline-code span that starts with a flag (`--jobs N`) or
invokes vanet_cli (`./build/vanet_cli sweep --jobs 4`) must be an option
the help text names, so a removed flag cannot stay documented. Spans that
invoke any other program (`perfbench/run.py --pair`) hold its flags, not
vanet_cli's, and are ignored.

Exit status 1 when any relative link is broken or any documented config
key or flag is unknown, listing every failure.
"""

import argparse
import pathlib
import re
import subprocess
import sys

from check_protocols_md import parse_md_table

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
CODE_FENCE_RE = re.compile(r"^\s*(```|~~~)")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")

# A dotted lowercase token that could be a config key: `phy.model`,
# `highway.idm.desired_speed`, optionally with an `=value` suffix.
KEY_TOKEN_RE = re.compile(r"[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+")

# A long option: `--jobs`, `--format=csv`, `--gtest_filter=...`.
FLAG_TOKEN_RE = re.compile(r"--[A-Za-z0-9][A-Za-z0-9_-]*")
# A long option as a `--help` text names it: not the tail of a longer word.
HELP_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

# Dotted tokens ending in a file suffix are file names, not config keys
# (`traffic.cpp` is a source file even though `traffic` is a key namespace).
FILE_SUFFIXES = {
    "c", "cc", "cpp", "h", "hpp", "py", "md", "txt", "csv", "json", "yml",
    "yaml", "sh", "cmake", "html", "js",
}

# Namespaces whose every key has been deleted. The registry no longer names
# them, so without this list no token in them would be checked, and a
# deleted key could stay documented (`etx.window`, `etx.hello_weight`).
RETIRED_NAMESPACES = frozenset({"etx"})


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


def config_keys_of(keys_table):
    """The set of config keys in `vanet_cli --keys` output (a markdown table)."""
    return {row["key"] for row in parse_md_table(keys_table.splitlines(), ["key"])}


def cli_config_keys(cli):
    """The live key registry of the `cli` binary."""
    out = subprocess.run(
        [cli, "--keys"], check=True, capture_output=True, text=True
    ).stdout
    keys = config_keys_of(out)
    if not keys:
        sys.exit(f"check_docs: could not parse `{cli} --keys` output")
    return keys


def flags_of(help_text):
    """The set of long options a `--help` text names."""
    return set(HELP_FLAG_RE.findall(help_text))


def cli_flags(cli):
    """The long options of the `cli` binary, read from its `--help`."""
    out = subprocess.run([cli, "--help"], check=True, capture_output=True,
                         text=True)
    flags = flags_of(out.stdout + out.stderr)
    if not flags:
        sys.exit(f"check_docs: could not parse `{cli} --help` output")
    return flags


def code_spans_of(path):
    """Yield (line_no, text) for each inline-code span outside fenced code."""
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
            yield line_no, span.group(1)


def config_key_refs_of(path):
    """Yield (line_no, token) for inline-code tokens shaped like config keys.

    Splits each `code span` on whitespace so `--set phy.model=nakagami`
    yields `phy.model`; `=value` suffixes are stripped, file names are
    dropped via FILE_SUFFIXES.
    """
    for line_no, span in code_spans_of(path):
        for raw in span.split():
            token = raw.partition("=")[0]
            if not KEY_TOKEN_RE.fullmatch(token):
                continue
            if token.rsplit(".", 1)[1] in FILE_SUFFIXES:
                continue
            yield line_no, token


def flag_refs_of(path):
    """Yield (line_no, flag) for the vanet_cli flags documented in `path`.

    A code span counts when its first word is a flag (`--retries N`) or a
    path to vanet_cli; `=value` suffixes are stripped.
    """
    for line_no, span in code_spans_of(path):
        words = span.split()
        if not words:
            continue
        if not (words[0].startswith("--")
                or pathlib.PurePath(words[0]).name == "vanet_cli"):
            continue
        for word in words:
            flag = word.partition("=")[0]
            if FLAG_TOKEN_RE.fullmatch(flag):
                yield line_no, flag


def check_config_keys(files, keys, retired=RETIRED_NAMESPACES):
    """Return (refs_checked, failures) for documented-key round-tripping.

    Only tokens whose first dotted component is a namespace the registry
    (`keys`) actually defines, or a `retired` one, are held to the
    round-trip rule; everything else (`json.dumps` in an example, a module
    path) is out of scope.
    """
    namespaces = {k.split(".", 1)[0] for k in keys if "." in k} | retired
    failures = []
    refs = 0
    for md in files:
        for line_no, token in config_key_refs_of(md):
            if token.split(".", 1)[0] not in namespaces:
                continue
            refs += 1
            if token not in keys:
                failures.append(
                    f"{md}:{line_no}: config key '{token}' is not in "
                    f"`vanet_cli --keys`"
                )
    return refs, failures


def check_flags(files, flags):
    """Return (refs_checked, failures) for documented-flag round-tripping."""
    failures = []
    refs = 0
    for md in files:
        for line_no, flag in flag_refs_of(md):
            refs += 1
            if flag not in flags:
                failures.append(
                    f"{md}:{line_no}: flag '{flag}' is not in "
                    f"`vanet_cli --help`"
                )
    return refs, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["README.md", "docs"])
    parser.add_argument("--list-external", action="store_true")
    parser.add_argument(
        "--cli",
        help="vanet_cli binary whose `--keys` table and `--help` text "
        "documented config keys and flags are round-tripped against "
        "(default: no key or flag check)",
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
    flag_refs = 0
    if args.cli:
        key_refs, key_failures = check_config_keys(
            files, cli_config_keys(args.cli)
        )
        broken.extend(key_failures)
        flag_refs, flag_failures = check_flags(files, cli_flags(args.cli))
        broken.extend(flag_failures)

    if broken:
        print("check_docs: broken links or references:", file=sys.stderr)
        for b in broken:
            print(f"  - {b}", file=sys.stderr)
        sys.exit(1)
    print(
        f"check_docs: {checked} relative link(s), {key_refs} config-key "
        f"reference(s) and {flag_refs} flag reference(s) across "
        f"{len(files)} file(s) ok"
    )


if __name__ == "__main__":
    main()
