#!/usr/bin/env python3
"""Dead-code check: every `vanet::` function in src/ must be linked somewhere.

A function is dead when no production binary links it: not `vanet_cli`, not
any `bench_*` or `example_*` program, not perfbench's `bench_workloads`. Tests
do not count; a helper only a test calls belongs in tests/util/, unless it is
the reference a test checks production code against (the allowlist below).

The linker decides. The check configures its own build trees (never `build/`)
and compiles the library and every production target at

    -O0 -fkeep-inline-functions -ffunction-sections -fdata-sections

linked with `-Wl,--gc-sections`. `-O0` keeps a function that is inlined into
every caller from looking dead, and `-fkeep-inline-functions` emits the
header-defined members so they can be checked at all. The dead set is the
`vanet::` functions `nm` finds defined in libvanet.a minus the union of those
defined in the production binaries, less the special members (constructors,
destructors, assignment) the compiler generates inline, which go when their
users go. Any symbol left that the allowlist does not name fails the check,
and so does an allowlist entry that is linked again or no longer exists.

A member of a class template that nothing instantiates emits no symbol, so
the library scan cannot see it. The check therefore compiles a probe that
explicitly instantiates every class template in src/ (TEMPLATE_PROBES; a
class template without an entry fails the check) and fails on any member of
the probe whose name, template arguments stripped, has no instance in a
production binary. Member templates, class templates nested in a class and
function templates are still judged only through their instances.

Usage:
    python3 tools/check_dead_code.py [--build-dir DIR] [--jobs N]

Exit status 0 when clean, 1 on dead code, a stale allowlist entry or a
production target that did not build.
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Unlinked functions that stay: each is the reference implementation a test
# checks production code against, the inverse a test round-trips production
# output through, or a read-only view of state a test asserts on that no
# linked function exposes. Name the test that uses it.
ALLOWLIST = {
    # Reference implementations.
    "vanet::net::ChannelState::interference_at(vanet::core::Vec2, "
    "vanet::core::SimTime, vanet::core::SimTime, double, unsigned int) const":
        "brute-force overlap scan ChannelState.MatchesBruteForce checks "
        "overlap_near against",
    "vanet::map::RouteCorridor::distance_to(vanet::core::Vec2) const":
        "exact distance RouteCorridor.ContainsMatchesExactDistanceEverywhere "
        "checks contains() against",
    "vanet::routing::LinkQualityTable::long_run_ratio(unsigned int) const":
        "unwindowed estimate EtxConvergence.LongRunRatioMatchesClosedForm"
        "ReceiptProbability checks against the analytic receipt probability",
    "vanet::sim::parse_config(std::__cxx11::basic_string<char, "
    "std::char_traits<char>, std::allocator<char> > const&)":
        "inverse ConfigKv.SerializeParseRoundTrip round-trips "
        "serialize_config through",
    # Views of state tests assert on.
    "vanet::net::ChannelState::size() const":
        "live entries ChannelState.PruneDropsOnlyEntriesEndedBeforeHorizon "
        "counts",
    "vanet::map::RouteCorridor::segments() const":
        "corridor route RouteCorridor.FollowsTheRoadRouteNotTheStraightLine "
        "checks",
    "vanet::mobility::GraphMobilityModel::current_segment(unsigned int) const":
        "driven segment GraphMobility.VehiclesStayOnEdges checks each "
        "vehicle lies on",
    "vanet::routing::DupCache::size() const":
        "occupancy DupCache.MatchesReferenceModel compares with its reference",
    "vanet::routing::EtxAgent::has_adverts_from(unsigned int) const":
        "advert state EtxAgent.DenseAgentMatchesOrderedMapReference compares "
        "with its reference",
    "vanet::routing::EtxAgent::has_kill_for(unsigned int) const":
        "kill state EtxAgent.DenseAgentMatchesOrderedMapReference compares "
        "with its reference",
    "vanet::routing::EtxProtocol::agent() const":
        "estimator EtxScenario.NodeOutageLeavesNoDanglingEstimatorState "
        "inspects after an outage",
    "vanet::sim::Scenario::traffic() const":
        "flows Scenario.RsusAreAppendedAfterVehicles checks keep RSUs out "
        "of the traffic",
    "vanet::sim::Scenario::road_graph() const":
        "topology Scenario.GraphMobilityBuildsAndSharesTopology checks "
        "mobility and routing share",
    "vanet::sim::Scenario::fault_plan()":
        "fault timeline FaultPlan.TimelineOracleTracksAppliedTransitions "
        "reads",
    "vanet::sim::Scenario::graph_model()":
        "segment blocks FaultPlan.RoadIncidentBlocksAndClearsSegments reads",
}

# Every class template in src/, with the explicit instantiation the probe
# compiles for it: {name: (header under src/, instantiation)}.
TEMPLATE_PROBES = {
    "CellArray": ("core/cell_array.h",
                  "template class vanet::core::CellArray<int>;"),
}

COMPILE_FLAGS = ("-O0 -fkeep-inline-functions -ffunction-sections "
                 "-fdata-sections")
LINK_FLAGS = "-Wl,--gc-sections"

# nm symbol types of code: text, local text, weak (COMDAT) text.
_CODE_TYPES = {"T", "t", "W", "w"}
# Itanium-mangled names of functions in namespace vanet: a nested name (with
# any cv- or ref-qualifier) whose first component is `vanet`. Local entities
# (lambdas, members of local classes: `_ZZ...`) are left out; they live and
# die with the function that encloses them, which is checked itself.
_VANET_RE = re.compile(r"^_ZN[rVK]*[RO]?5vanet")
# Operator names whose spelling holds a '<' or '>' that opens no template
# argument list.
_ANGLE_OPERATOR_RE = re.compile(r"operator(?:<=>|<<=|>>=|<<|>>|<=|>=|->\*?|<|>)")
# A namespace-scope class template's declaration (unindented, as every
# namespace-scope declaration in src/ is): `template <...> class|struct Name`.
_CLASS_TEMPLATE_RE = re.compile(
    r"^template\s*<[^;{]*?>\s*(?:class|struct)\s+(\w+)", re.MULTILINE)


def expected_targets(repo):
    """Names of the production binaries the main build must produce."""
    names = ["vanet_cli"]
    for pattern, prefix in (("bench/*.cpp", ""), ("examples/*.cpp", "example_")):
        for src in sorted(glob.glob(os.path.join(repo, pattern))):
            names.append(prefix + os.path.splitext(os.path.basename(src))[0])
    return names


def parse_nm(text):
    """{mangled name: emitted inline} for the `vanet::` functions in `nm`
    output.

    A function is emitted inline when no definition of it is a global strong
    one ('T'): every copy is COMDAT ('W'/'w') or internal ('t').
    """
    symbols = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) < 2 or parts[-2] not in _CODE_TYPES:
            continue
        name = parts[-1]
        if not _VANET_RE.match(name):
            continue
        symbols[name] = symbols.get(name, True) and parts[-2] != "T"
    return symbols


def demangle(names):
    """{mangled: demangled} through one c++filt process."""
    names = sorted(names)
    proc = subprocess.run(["c++filt"], input="\n".join(names), text=True,
                          capture_output=True, check=True)
    return dict(zip(names, proc.stdout.splitlines()))


def _split_params(name):
    """(everything before the parameter list, the parameters) of `name`."""
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(":
            depth -= 1
            if depth == 0:
                params = name[i + 1:]
                return name[:i], params[:params.rfind(")")].strip()
    return name, ""


def is_special_member(name, emitted_inline):
    """Whether `name`, a demangled non-template member function, is a
    special member the compiler generated.

    A constructor taking nothing or its own class, a destructor, or a
    copy/move assignment, emitted inline (as COMDAT or internal-linkage
    copies). A user-written out-of-line special member is a global
    definition and is checked like any other function.
    """
    if not emitted_inline:
        return False
    qualified, params = _split_params(name)
    scope, _, member = qualified.rpartition("::")
    cls = scope.rpartition("::")[2]
    own = re.compile(r"(?:.*::)?" + re.escape(cls) + r"(?: const)?&{1,2}")
    if member == "~" + cls:
        return True
    if member == cls:
        return params in ("", "void") or own.fullmatch(params) is not None
    if member == "operator=":
        return own.fullmatch(params) is not None
    return False


def is_template_instance(name):
    """Whether demangled `name` is an instantiation of a template.

    Its qualified name (or the return type only a function template's
    demangled form shows) carries a template argument list. An instantiation
    exists because non-template code uses it, and goes when that code goes,
    so the check judges the user, not the instance.
    """
    return "<" in _ANGLE_OPERATOR_RE.sub("operator", _split_params(name)[0])


def strip_template_args(name):
    """`name` with every template argument list removed."""
    out, depth, i = [], 0, 0
    while i < len(name):
        match = _ANGLE_OPERATOR_RE.match(name, i)
        if match and depth == 0:
            out.append(match.group(0))
            i = match.end()
            continue
        if name[i] == "<":
            depth += 1
        elif name[i] == ">":
            depth -= 1
        elif depth == 0:
            out.append(name[i])
        i += 1
    return "".join(out)


def member_key(name):
    """(qualified name, parameter count, qualifiers) of demangled `name`,
    template arguments stripped: the same member of two instances of a
    class template has the same key, whatever the template arguments."""
    qualified, params = _split_params(name)
    suffix = name[name.rfind(")") + 1:].strip()
    depth, count = 0, 0 if params in ("", "void") else 1
    for ch in params:
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        elif ch == "," and depth == 0:
            count += 1
    return strip_template_args(qualified), count, suffix


def class_templates(src_root):
    """{class template name: file} for every namespace-scope class template
    under `src_root`."""
    found = {}
    for path in sorted(glob.glob(os.path.join(src_root, "**", "*.*"),
                                 recursive=True)):
        if not path.endswith((".h", ".cpp")):
            continue
        with open(path, encoding="utf-8") as f:
            for name in _CLASS_TEMPLATE_RE.findall(f.read()):
                found.setdefault(name, os.path.relpath(path, src_root))
    return found


def probe_source(probes):
    """C++ source that explicitly instantiates every probed class
    template."""
    lines = ["// Generated by tools/check_dead_code.py."]
    lines += [f'#include "{header}"' for header, _ in probes.values()]
    lines += [instantiation for _, instantiation in probes.values()]
    return "\n".join(lines) + "\n"


def unlinked_template_members(probe, binaries, names):
    """Demangled, argument-stripped names of the members in `probe` (parse_nm
    of the probe object) that no binary links an instance of.

    `binaries` maps each production binary to its parse_nm, `names`
    demangles every symbol involved. Special members the compiler generated
    go with their users, as in dead_symbols.
    """
    linked = {member_key(names[sym])
              for symbols in binaries.values() for sym in symbols}
    unlinked = set()
    for sym, emitted_inline in probe.items():
        name = names[sym]
        qualified, _ = _split_params(name)
        stripped = strip_template_args(qualified) + name[len(qualified):]
        if is_special_member(stripped, emitted_inline):
            continue
        if member_key(name) not in linked:
            unlinked.add(stripped)
    return sorted(unlinked)


def dead_symbols(library, binaries, names):
    """Demangled names of the library functions no binary defines.

    `library` is parse_nm of the archive, `binaries` maps each production
    binary to parse_nm of it, `names` demangles the library's symbols.
    Template instances and special members the compiler generated are
    dropped.
    """
    linked = set()
    for symbols in binaries.values():
        linked.update(symbols)
    return sorted({names[sym] for sym, emitted_inline in library.items()
                   if sym not in linked
                   and not is_template_instance(names[sym])
                   and not is_special_member(names[sym], emitted_inline)})


def missing_targets(paths):
    """Names of the expected build outputs ({name: path}) that are absent."""
    return [name for name, path in paths.items() if not os.path.isfile(path)]


def findings(dead, defined, allowlist):
    """(dead symbols the allowlist does not name, stale allowlist entries).

    `defined` holds the demangled names of every library function; a stale
    entry comes with why it is stale.
    """
    unlisted = [name for name in dead if name not in allowlist]
    stale = []
    for name in sorted(allowlist):
        if name not in defined:
            stale.append((name, "no longer defined in the library"))
        elif name not in dead:
            stale.append((name, "now linked by a production binary"))
    return unlisted, stale


def run_nm(path):
    proc = subprocess.run(["nm", "--defined-only", path],
                          capture_output=True, text=True, check=True)
    return parse_nm(proc.stdout)


def build_probe(build_dir, probes):
    """Compile the template probe with the main tree's compiler and flags;
    returns the object's path, or None when it does not compile."""
    compiler = None
    with open(os.path.join(build_dir, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
    source = os.path.join(build_dir, "template_probe.cpp")
    with open(source, "w", encoding="utf-8") as f:
        f.write(probe_source(probes))
    obj = os.path.join(build_dir, "template_probe.o")
    proc = subprocess.run([compiler or "c++", "-std=c++20",
                           *COMPILE_FLAGS.split(), "-I",
                           os.path.join(REPO, "src"), "-c", source, "-o", obj],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return None
    return obj


def _build(source, build_dir, targets, jobs, extra):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", source, "-B", build_dir, *generator,
                 "-DCMAKE_BUILD_TYPE=DeadCode",
                 f"-DCMAKE_CXX_FLAGS={COMPILE_FLAGS}",
                 f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}", *extra]
    subprocess.run(configure, check=True, stdout=subprocess.DEVNULL)
    # Keep going past a target that fails (say, google-benchmark is missing)
    # so the others build; the caller names what is missing, and the build
    # log says why.
    keep_going = ["-k", "0"] if generator else ["-k"]
    proc = subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs),
                           "--target", *targets, "--", *keep_going],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(REPO, "build-dead-code"),
                    help="scratch build root (default: build-dead-code/)")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = ap.parse_args(argv)

    main_dir = os.path.join(args.build_dir, "main")
    perf_dir = os.path.join(args.build_dir, "perfbench")
    targets = expected_targets(REPO)
    _build(REPO, main_dir, ["vanet", *targets], args.jobs, [])
    _build(os.path.join(REPO, "perfbench"), perf_dir, ["bench_workloads"],
           args.jobs, [f"-DVANET_SOURCE_DIR={REPO}"])

    library_path = os.path.join(main_dir, "libvanet.a")
    paths = {name: os.path.join(main_dir, name) for name in targets}
    paths["bench_workloads"] = os.path.join(perf_dir, "bench_workloads")
    missing = missing_targets({"libvanet.a": library_path, **paths})
    if missing:
        for name in missing:
            print(f"check_dead_code: {name} did not build", file=sys.stderr)
        print("check_dead_code: every production target must build, or the "
              "code only it links reads as dead", file=sys.stderr)
        return 1

    unprobed = sorted(set(class_templates(os.path.join(REPO, "src")))
                      - set(TEMPLATE_PROBES))
    for name in unprobed:
        print(f"check_dead_code: class template {name} has no entry in "
              "TEMPLATE_PROBES", file=sys.stderr)
    probe_path = build_probe(main_dir, TEMPLATE_PROBES)
    if probe_path is None or unprobed:
        print("check_dead_code: the template probe must instantiate every "
              "class template in src/", file=sys.stderr)
        return 1

    library = run_nm(library_path)
    binaries = {name: run_nm(path) for name, path in paths.items()}
    probe = run_nm(probe_path)
    names = demangle(set(library).union(probe, *binaries.values()))
    dead = dead_symbols(library, binaries, names)
    members = unlinked_template_members(probe, binaries, names)
    unlisted, stale = findings(dead, set(names[sym] for sym in library),
                               ALLOWLIST)
    for name in unlisted + members:
        print(f"dead: {name}")
    for name, why in stale:
        print(f"stale allowlist entry: {name} ({why})")
    print(f"check_dead_code: {len(library)} vanet:: functions, "
          f"{len(binaries)} binaries, {len(dead)} unlinked "
          f"({len(dead) - len(unlisted)} allowlisted), {len(unlisted)} dead, "
          f"{len(members)} dead class template members, "
          f"{len(stale)} stale allowlist entries", file=sys.stderr)
    return 1 if unlisted or members or stale else 0


if __name__ == "__main__":
    sys.exit(main())
