"""Self-tests for tools/check_dead_code.py's set logic, on fixture `nm` output.

The build itself is not run here; each test feeds the functions that parse
`nm` output and compute the dead set the symbols a build would produce.

    python3 -m unittest discover -s tools/tests -v
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir))
import check_dead_code as dc  # noqa: E402

# Library fixture: mangled names as `nm --defined-only` prints them, in the
# archive's per-member layout.
LIBRARY_NM = """
stats.cpp.o:
0000000000000000 T _ZN5vanet8analysis12RunningStats3addEd
0000000000000000 T _ZN5vanet8analysis13path_lifetimeERKSt6vectorIdSaIdEE
0000000000000000 W _ZNK5vanet8analysis12RunningStats4meanEv
0000000000000000 W _ZN5vanet8analysis12RunningStatsC2ERKS1_
0000000000000000 t _ZZN5vanet8analysis12RunningStats3addEdENKUlvE_clEv
0000000000000000 W _ZNSt6vectorIdSaIdEE9push_backERKd
0000000000000000 D _ZN5vanet8analysis7kTableE
                 U _ZN5vanet4core3Rng7uniformEdd

scenario.cpp.o:
0000000000000000 T _ZN5vanet3sim8Scenario3runEv
0000000000000000 W _ZNK5vanet8analysis12RunningStats4meanEv
"""

CLI_NM = """
0000000000001000 T _ZN5vanet3sim8Scenario3runEv
0000000000002000 W _ZNK5vanet8analysis12RunningStats4meanEv
0000000000003000 T main
"""

BENCH_NM = """
0000000000001000 T _ZN5vanet8analysis12RunningStats3addEd
"""


class ParseNmTest(unittest.TestCase):
    def test_keeps_only_vanet_code_symbols(self):
        symbols = dc.parse_nm(LIBRARY_NM)
        self.assertEqual(sorted(symbols), sorted([
            "_ZN5vanet8analysis12RunningStats3addEd",
            "_ZN5vanet8analysis13path_lifetimeERKSt6vectorIdSaIdEE",
            "_ZNK5vanet8analysis12RunningStats4meanEv",
            "_ZN5vanet8analysis12RunningStatsC2ERKS1_",
            "_ZN5vanet3sim8Scenario3runEv",
        ]))  # no lambda, std:: instance, data or undefined symbol

    def test_marks_functions_emitted_inline(self):
        symbols = dc.parse_nm(LIBRARY_NM)
        self.assertFalse(symbols["_ZN5vanet8analysis12RunningStats3addEd"])
        self.assertTrue(symbols["_ZNK5vanet8analysis12RunningStats4meanEv"])
        self.assertTrue(symbols["_ZN5vanet8analysis12RunningStatsC2ERKS1_"])

    def test_one_strong_definition_makes_a_name_strong(self):
        symbols = dc.parse_nm(" W _ZN5vanet1fEv\n T _ZN5vanet1fEv\n")
        self.assertEqual(symbols, {"_ZN5vanet1fEv": False})


class DeadSymbolsTest(unittest.TestCase):
    NAMES = {
        "_ZN5vanet8analysis12RunningStats3addEd":
            "vanet::analysis::RunningStats::add(double)",
        "_ZN5vanet8analysis13path_lifetimeERKSt6vectorIdSaIdEE":
            "vanet::analysis::path_lifetime(std::vector<double, "
            "std::allocator<double> > const&)",
        "_ZNK5vanet8analysis12RunningStats4meanEv":
            "vanet::analysis::RunningStats::mean() const",
        "_ZN5vanet8analysis12RunningStatsC2ERKS1_":
            "vanet::analysis::RunningStats::RunningStats("
            "vanet::analysis::RunningStats const&)",
        "_ZN5vanet3sim8Scenario3runEv": "vanet::sim::Scenario::run()",
    }

    def dead(self, binaries):
        return dc.dead_symbols(dc.parse_nm(LIBRARY_NM),
                               {name: dc.parse_nm(text)
                                for name, text in binaries.items()},
                               self.NAMES)

    def test_union_over_binaries(self):
        # add() is only in the bench, run() and mean() only in the CLI: each
        # is live, and only the function neither links is dead.
        self.assertEqual(
            self.dead({"vanet_cli": CLI_NM, "bench_fig2": BENCH_NM}),
            ["vanet::analysis::path_lifetime(std::vector<double, "
             "std::allocator<double> > const&)"])

    def test_a_binary_less_is_code_more(self):
        self.assertIn("vanet::analysis::RunningStats::add(double)",
                      self.dead({"vanet_cli": CLI_NM}))

    def test_implicit_copy_constructor_is_not_reported(self):
        dead = self.dead({})
        self.assertNotIn("vanet::analysis::RunningStats::RunningStats("
                         "vanet::analysis::RunningStats const&)", dead)
        self.assertIn("vanet::analysis::RunningStats::mean() const", dead)


class SpecialMemberTest(unittest.TestCase):
    def test_inline_special_members(self):
        for name in ("vanet::map::RoadGraph::RoadGraph()",
                     "vanet::map::RoadGraph::RoadGraph("
                     "vanet::map::RoadGraph const&)",
                     "vanet::map::RoadGraph::RoadGraph("
                     "vanet::map::RoadGraph&&)",
                     "vanet::map::RoadGraph::~RoadGraph()",
                     "vanet::map::RoadGraph::operator=("
                     "vanet::map::RoadGraph const&)",
                     "vanet::map::RoadGraph::operator=("
                     "vanet::map::RoadGraph&&)",
                     "vanet::mobility::(anonymous namespace)::Nearest::"
                     "Nearest()"):
            self.assertTrue(dc.is_special_member(name, True), name)

    def test_out_of_line_special_member_is_checked(self):
        self.assertFalse(dc.is_special_member(
            "vanet::sim::Scenario::~Scenario()", False))

    def test_other_constructors_and_assignments_are_checked(self):
        for name in ("vanet::map::RoadGraph::RoadGraph(int, int, double)",
                     "vanet::core::Rng::Rng(unsigned long)",
                     "vanet::core::SimTime::operator+=(vanet::core::SimTime)",
                     "vanet::core::Vec2::operator-() const"):
            self.assertFalse(dc.is_special_member(name, True), name)


class TemplateInstanceTest(unittest.TestCase):
    def test_instances_are_judged_through_their_users(self):
        for name in ("vanet::core::CellArray<std::vector<int, "
                     "std::allocator<int> > >::find(long, long) const",
                     "void vanet::net::ChannelState::for_each_near<F>("
                     "vanet::core::Vec2, double, F&&) const"):
            self.assertTrue(dc.is_template_instance(name), name)

    def test_operators_spelled_with_angle_brackets_are_not_templates(self):
        for name in ("vanet::core::SimTime::operator<(vanet::core::SimTime)",
                     "vanet::core::operator<<(std::ostream&, "
                     "vanet::core::SimTime)",
                     "vanet::map::RoadGraph::segment_count() const"):
            self.assertFalse(dc.is_template_instance(name), name)


class TemplateMemberTest(unittest.TestCase):
    """Members of an explicitly instantiated class template (the probe)
    against the instances production binaries link."""

    CELL = "vanet::core::CellArray<std::vector<int, std::allocator<int> > >"
    NAMES = {
        # The probe's CellArray<int>.
        "p_ctor": "vanet::core::CellArray<int>::CellArray(double, "
                  "vanet::core::Box const&)",
        "p_index": "vanet::core::CellArray<int>::operator[](unsigned long)",
        "p_cindex": "vanet::core::CellArray<int>::operator[](unsigned long) "
                    "const",
        "p_find": "vanet::core::CellArray<int>::find(long, long) const",
        "p_dtor": "vanet::core::CellArray<int>::~CellArray()",
        # A binary's instances over another cell type.
        "b_ctor": CELL + "::CellArray(double, vanet::core::Box const&)",
        "b_index": CELL + "::operator[](unsigned long)",
        "b_find": CELL + "::find(long, long) const",
        "b_each": "void " + CELL + "::for_each<F>(vanet::core::Vec2, "
                  "vanet::core::Vec2, F&&) const",
    }
    PROBE = {"p_ctor": False, "p_index": True, "p_cindex": True,
             "p_find": True, "p_dtor": True}

    def unlinked(self, *linked):
        return dc.unlinked_template_members(
            self.PROBE, {"vanet_cli": {sym: True for sym in linked}},
            self.NAMES)

    def test_members_match_across_template_arguments(self):
        self.assertEqual(
            self.unlinked("b_ctor", "b_index", "b_find", "b_each"),
            ["vanet::core::CellArray::operator[](unsigned long) const"])

    def test_const_overload_is_a_member_of_its_own(self):
        self.assertIn("vanet::core::CellArray::operator[](unsigned long)",
                      self.unlinked("b_ctor", "b_find"))

    def test_generated_destructor_is_not_reported(self):
        self.assertNotIn("vanet::core::CellArray::~CellArray()",
                         self.unlinked())

    def test_member_key_strips_arguments_and_keeps_qualifiers(self):
        self.assertEqual(dc.member_key(self.NAMES["b_find"]),
                         ("vanet::core::CellArray::find", 2, "const"))
        self.assertEqual(dc.member_key(self.NAMES["p_index"]),
                         ("vanet::core::CellArray::operator[]", 1, ""))
        self.assertEqual(
            dc.member_key("vanet::core::SimTime::operator<"
                          "(vanet::core::SimTime) const"),
            ("vanet::core::SimTime::operator<", 1, "const"))

    def test_namespace_scope_class_templates_are_found(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "core"))
            with open(os.path.join(root, "core", "a.h"), "w") as f:
                f.write("template <typename Cell>\nclass CellArray {\n"
                        "  template <typename D>\n  struct Nested {};\n};\n"
                        "template <typename T, int N> struct Pair;\n"
                        "template <typename F>\nvoid apply(F&& f);\n")
            self.assertEqual(dc.class_templates(root),
                             {"CellArray": "core/a.h",
                              "Pair": "core/a.h"})

    def test_every_class_template_in_src_has_a_probe(self):
        self.assertEqual(
            set(dc.class_templates(os.path.join(dc.REPO, "src"))),
            set(dc.TEMPLATE_PROBES))

    def test_probe_source_instantiates_each_entry(self):
        source = dc.probe_source({"A": ("x/a.h", "template class n::A<int>;")})
        self.assertIn('#include "x/a.h"', source)
        self.assertIn("template class n::A<int>;", source)


class MissingTargetTest(unittest.TestCase):
    def test_an_unbuilt_target_is_named(self):
        with tempfile.TemporaryDirectory() as root:
            built = os.path.join(root, "vanet_cli")
            open(built, "w").close()
            missing = dc.missing_targets({
                "vanet_cli": built,
                "bench_micro_core": os.path.join(root, "bench_micro_core"),
            })
        self.assertEqual(missing, ["bench_micro_core"])

    def test_expected_targets_cover_every_production_source(self):
        with tempfile.TemporaryDirectory() as root:
            for rel in ("bench/bench_fig2.cpp", "bench/bench_micro_core.cpp",
                        "examples/quickstart.cpp", "tests/test_x.cpp"):
                os.makedirs(os.path.join(root, os.path.dirname(rel)),
                            exist_ok=True)
                open(os.path.join(root, rel), "w").close()
            self.assertEqual(dc.expected_targets(root),
                             ["vanet_cli", "bench_fig2", "bench_micro_core",
                              "example_quickstart"])


class AllowlistTest(unittest.TestCase):
    DEFINED = {"vanet::a()", "vanet::b()", "vanet::c()"}

    def test_listed_dead_symbol_passes(self):
        unlisted, stale = dc.findings(["vanet::a()"], self.DEFINED,
                                      {"vanet::a()": "oracle of T.t"})
        self.assertEqual((unlisted, stale), ([], []))

    def test_unlisted_dead_symbol_fails(self):
        unlisted, _ = dc.findings(["vanet::a()", "vanet::b()"], self.DEFINED,
                                  {"vanet::a()": "oracle of T.t"})
        self.assertEqual(unlisted, ["vanet::b()"])

    def test_entry_now_linked_is_stale(self):
        _, stale = dc.findings([], self.DEFINED, {"vanet::c()": "T.t"})
        self.assertEqual(stale, [("vanet::c()",
                                  "now linked by a production binary")])

    def test_entry_no_longer_defined_is_stale(self):
        _, stale = dc.findings([], self.DEFINED, {"vanet::gone()": "T.t"})
        self.assertEqual(stale, [("vanet::gone()",
                                  "no longer defined in the library")])

    def test_every_entry_names_a_test(self):
        for name, reason in dc.ALLOWLIST.items():
            self.assertRegex(reason, r"\b[A-Z]\w*\.[A-Z]\w*", name)


@unittest.skipUnless(shutil.which("c++filt"), "needs binutils' c++filt")
class DemangleTest(unittest.TestCase):
    def test_names_match_the_allowlist_spelling(self):
        self.assertEqual(
            dc.demangle(["_ZN5vanet3sim8Scenario3runEv",
                         "_ZNK5vanet8analysis12RunningStats4meanEv"]),
            {"_ZN5vanet3sim8Scenario3runEv": "vanet::sim::Scenario::run()",
             "_ZNK5vanet8analysis12RunningStats4meanEv":
                 "vanet::analysis::RunningStats::mean() const"})


if __name__ == "__main__":
    unittest.main()
