"""Mutation runner: does each named fault in ``src/specdec`` fail a test?

Each mutant replaces one exact text in one source file, or several for a
fault that spans several places, and names the tests expected to catch it.
The runner copies the repository into a temporary directory once, applies
each mutant there in turn (restoring the file after), runs its tests with
pytest and prints caught/total. A mutant is caught when pytest reports
failing tests (exit code 1). The working tree is never modified. Standard
library only.

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones
    python tools/mutants.py --list

``tests/test_mutants.py`` checks that each old text still occurs exactly
once in ``src/specdec``, so a refactor that moves it must update this list.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/specdec
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the repository root
    more: tuple[tuple[str, str], ...] = ()  # further (old, new) edits of the same fault

    @property
    def edits(self) -> tuple[tuple[str, str], ...]:
        return ((self.old, self.new), *self.more)


MUTANTS = (
    Mutant("unstable rank sort", "dists.py",
           'np.argsort(-probs, kind="stable")', "np.argsort(-probs)",
           ("tests/test_models.py::test_served_rows_carry_their_facts",)),
    Mutant("propose zero-probability tokens", "dists.py",
           "ranked = ranked[probs[ranked] > 0.0]", "ranked = ranked",
           ("tests/test_models.py::test_served_rows_carry_their_facts",)),
    Mutant("narrower fan read returns the whole fan", "dists.py",
           "return ids[:width], logps[:width]", "return ids, logps",
           ("tests/test_models.py::test_served_rows_carry_their_facts",)),
    Mutant("wider fan read keeps the narrower fan", "dists.py",
           "if width < kept:", "if width != kept:",
           ("tests/test_models.py::test_served_rows_carry_their_facts",)),
    Mutant("accept bool rows", "dists.py",
           "any(isinstance(v, (bool, np.bool_)) for v in values)", "False",
           ("tests/test_contexts.py::test_a_list_row_that_is_not_numbers_is_a_one_line_input_error",)),
    Mutant("trust a checked context for any vocabulary", "models.py",
           "if type(ctx) is _CheckedContext and (ctx.vocab is vocab or ctx.vocab == vocab):",
           "if type(ctx) is _CheckedContext:",
           ("tests/test_contexts.py",)),
    Mutant("unclamped tail slice", "models.py",
           "return table[ctx[table.tail]]", "return table[ctx[len(ctx) + table.tail.start:]]",
           ("tests/test_models.py::test_a_blend_tail_index_serves_the_row_its_table_holds",
            "tests/test_models.py::test_a_tabled_model_serves_its_key_row_by_tail")),
    Mutant("a tail probe skipped on short contexts", "models.py",
           "return table[ctx[table.tail]]",
           "return (table[ctx[table.tail]] if len(ctx) >= -table.tail.start\n"
           "            else table.__missing__(ctx[table.tail]))",
           ("tests/test_models.py::test_a_cold_read_misses_once_per_distinct_tail",)),
    Mutant("__missing__ skips the EOS test", "models.py",
           "if tail[-1] == model.vocab.eos_id:", "if False:",
           ("tests/test_models.py::test_a_context_ending_in_eos_raises_on_a_cold_and_a_warm_table",
            "tests/test_models.py::test_no_table_key_ends_in_eos")),
    Mutant("a window-0 table probed by ()", "models.py",
           "self.tail = slice(-max(model.context_window, 1), None)",
           "self.tail = slice(-model.context_window, None) if model.context_window else "
           "slice(0, 0)",
           ("tests/test_models.py::test_a_context_ending_in_eos_raises_on_a_cold_and_a_warm_table",)),
    Mutant("a blend with an untabled side keeps a table", "models.py",
           "if target._table is not None and draft_base._table is not None:", "if True:",
           ("tests/test_models.py::test_only_rows_with_a_key_are_filed_under_their_tail",)),
    Mutant("a tail is filed without the key path", "models.py",
           "row = self.get(key)", "row = None",
           ("tests/test_models.py::test_each_model_row_is_checked_exactly_once",)),
    Mutant("the greedy token is not filed", "dists.py",
           "row.greedy_token = int(probs.argmax())", "pass",
           ("tests/test_models.py::test_served_rows_carry_their_facts",)),
    Mutant("a derived row's greedy token is read from its slot", "dists.py",
           "try:\n        return probs.greedy_token\n    except AttributeError:\n"
           "        return int(probs.argmax())",
           "if isinstance(probs, Row):\n        return probs.greedy_token\n"
           "    return int(probs.argmax())",
           ("tests/test_dists.py::test_greedy_tie_breaks_to_lowest_id",)),
    Mutant("constant model keeps no table", "models.py",
           "self._table[()] = check_row(probs, vocab.size)", "check_row(probs, vocab.size)",
           ("tests/test_models.py::test_a_constant_model_checks_its_one_row_once",)),
    Mutant("the id check lets the vocabulary size through", "models.py",
           "max(ids, default=0) >= vocab.size", "max(ids, default=0) > vocab.size",
           ("tests/test_models.py::test_an_ngram_model_checks_its_count_tables_for_every_caller",
            "tests/test_models.py::test_load_rejects_corrupt_count_tables_naming_the_file")),
    Mutant("the count check misses the unigram", "models.py",
           "min(chain(unigram_counts, *map(", "min(chain(*map(",
           ("tests/test_models.py::test_an_ngram_model_checks_its_count_tables_for_every_caller",)),
    Mutant("load_model lets OverflowError escape", "models.py",
           "except (KeyError, TypeError, ValueError, OverflowError) as exc:",
           "except (KeyError, TypeError, ValueError) as exc:",
           ("tests/test_models.py::test_load_model_survives_mutated_files",
            "tests/test_models.py::test_load_rejects_non_integer_or_misshapen_tables",
            "tests/test_models.py::test_load_rejects_a_count_beyond_int64_in_one_line")),
    Mutant("n-gram window of order - 2", "models.py",
           "self.context_window = order - 1", "self.context_window = order - 2",
           ("tests/test_models.py", "tests/test_contexts.py")),
    Mutant("blend window takes the smaller side", "models.py",
           "max(target.context_window, draft_base.context_window)",
           "min(target.context_window, draft_base.context_window)",
           ("tests/test_models.py",)),
    Mutant("trim keeps one token fewer", "decode.py",
           "else -max(1, *windows), None)", "else 1 - max(1, *windows), None)",
           ("tests/test_contexts.py",)),
    Mutant("SpecTree copies its context", "tree.py",
           "= ctx, tokens, parents, rows", "= tuple(ctx), tokens, parents, rows",
           ("tests/test_contexts.py",)),
    Mutant("SpecTree keeps an instance dict", "tree.py",
           '    __slots__ = ("context", "tokens", "parents", "rows", "draft_queries", '
           '"non_root_count")\n', "",
           ("tests/test_call_counts.py::test_an_expanded_tree_has_slots_and_no_instance_dict",)),
    Mutant("the heap loop reads entropy at threshold 0", "tree.py",
           "1 if threshold and row.entropy < threshold else fan_width",
           "1 if row.entropy < threshold else fan_width",
           ("tests/test_call_counts.py::"
            "test_a_threshold_0_tree_cycle_adds_one_fan_per_draft_query",)),
    Mutant("verify reads the greedy token through a call", "decode.py",
           "while True:\n        want = next_distribution(target, ctx).greedy_token",
           "while True:\n        want = greedy_token(next_distribution(target, ctx))",
           ("tests/test_call_counts.py::"
            "test_a_warm_chain_cycle_calls_only_its_stages_and_row_reads",)),
    Mutant("rank 0 taken without heappushpop", "tree.py",
           "entry = pushpop(heap, (", "entry = ((",
           ("tests/test_tree.py",)),
    Mutant("an entry's rank read as 0", "tree.py",
           "rank = code % max_branch", "rank = 0",
           ("tests/test_tree.py::test_expand_uniform_binary_tree",)),
    Mutant("the next sibling skips a rank", "tree.py",
           "depth, code + 1, cursor)", "depth, code + 2, cursor)",
           ("tests/test_tree.py::test_expand_uniform_binary_tree",)),
    Mutant("nodes keeps a dropped node", "tree.py",
           "if parent != -1:\n                up = nodes[parent]",
           "if True:\n                up = nodes.get(parent, _ROOT)",
           ("tests/test_tree.py::test_each_read_of_nodes_and_children_is_a_fresh_snapshot",)),
    Mutant("node views recurse once per level", "tree.py",
           "nodes = {ROOT_ID: _ROOT}\n",
           "nodes = {ROOT_ID: _ROOT}\n\n"
           "        def up_of(nid):\n"
           "            if nid != ROOT_ID:\n"
           "                up_of(self.parents[nid - 1])\n"
           "            return nodes[nid]\n",
           ("tests/test_tree.py::test_a_tree_deeper_than_the_recursion_limit_reads_back",),
           more=(("up = nodes[parent]", "up = up_of(parent)"),)),
    Mutant("children misses a leaf's empty list", "tree.py",
           "children[parent].append(nid)\n                children[nid] = []",
           "children.setdefault(parent, []).append(nid)",
           ("tests/test_tree.py::test_each_read_of_nodes_and_children_is_a_fresh_snapshot",)),
    Mutant("fan_width counts a rank below the floor", "tree.py",
           "while fan_width < self.max_branch and log_rates[fan_width] >= log_floor:",
           "while fan_width < self.max_branch:",
           ("tests/test_tree.py",)),
    Mutant("acceptance vector ignored in the key", "tree.py",
           "keys = rates", "keys = keys",
           ("tests/test_tree.py",)),
    Mutant("floor check dropped", "tree.py",
           "if neg_next <= neg_floor:", "if True:",
           ("tests/test_tree.py",)),
    Mutant("query rule dropped", "tree.py",
           "if query and (not rates or -(score + rates[0]) <= neg_floor):", "if query:",
           ("tests/test_tree.py",),
           more=(("if score < log_floor:", "if False:"),)),
    Mutant("a rank-0 rate of 1 walks every depth", "tree.py",
           "if rate == 1.0:", "if False:",
           ("tests/test_tree.py::"
            "test_a_huge_chain_policy_derives_its_path_depth_where_the_walk_stops",)),
    Mutant("path_depth stops at a score equal to the floor", "tree.py",
           "if score < log_floor:", "if score <= log_floor:",
           ("tests/test_tree.py::test_path_depth_is_the_per_cycle_walk_derived_once",)),
    Mutant("the path queries the node at max_depth", "tree.py",
           "limit = min(self.node_budget, self.max_depth)",
           "limit = min(self.node_budget, self.max_depth + 1)",
           ("tests/test_tree.py",)),
    Mutant("the path ignores the budget", "tree.py",
           "limit = min(self.node_budget, self.max_depth)", "limit = self.max_depth",
           ("tests/test_decode.py::"
            "test_a_chain_policy_tree_verifies_and_prunes_as_its_equal_hand_built_tree",)),
    Mutant("path verification keeps walking after an accepted EOS", "decode.py",
           "if want == eos:", "if False:",
           ("tests/test_decode.py::"
            "test_a_chain_policy_tree_verifies_and_prunes_as_its_equal_hand_built_tree",)),
    Mutant("the scan ignores the parent", "decode.py",
           "if tokens[i] == want and parents[i] == node:", "if tokens[i] == want:",
           ("tests/test_decode.py::"
            "test_verify_matches_brute_force_oracle_on_interleaved_trees_and_their_cuts",)),
    Mutant("a cut keeps dropped nodes' parents", "tree.py",
           "parent if nid in keep else -1", "parent",
           ("tests/test_tree.py",)),
    Mutant("acceptance rates left unsorted", "metrics.py",
           "return non_increasing([(h + 0.5) / (len(probes) + 1) for h in hits])",
           "return tuple((h + 0.5) / (len(probes) + 1) for h in hits)",
           ("tests/test_metrics.py",)),
    Mutant("acceptance vector estimated per (domain, lambda)", "harness.py",
           "policy in policies[lam].items():",
           "policy in cell_policies(config, draft, target, probes).items():",
           ("tests/test_harness.py::"
            "test_demo_domains_of_one_lambda_decode_under_equal_hashable_policies",)),
    Mutant("expand_tree skips the context check", "tree.py",
           "ctx = validate_context(draft.vocab, ctx)", "pass",
           ("tests/test_contexts.py",)),
    Mutant("expand_tree trusts a context checked for another vocabulary", "tree.py",
           "or ctx.vocab is not draft.vocab:\n        ctx = validate_context(draft.vocab, ctx)",
           ":\n        ctx = validate_context(draft.vocab, ctx)",
           ("tests/test_contexts.py::"
            "test_a_context_checked_for_one_vocabulary_is_checked_again_for_another",)),
    Mutant("estimate_kl skips the context check", "metrics.py",
           "probes = [validate_context(target.vocab, ctx) for ctx in probes]", "pass",
           ("tests/test_contexts.py",)),
    Mutant("verify_tree skips the context check", "decode.py",
           "ctx = validate_context(target.vocab, ctx)", "pass",
           ("tests/test_contexts.py",)),
    Mutant("verify_tree trusts a context checked for another vocabulary", "decode.py",
           "or ctx.vocab is not target.vocab:\n        ctx = validate_context(target.vocab, ctx)",
           ":\n        ctx = validate_context(target.vocab, ctx)",
           ("tests/test_contexts.py::"
            "test_a_context_checked_for_one_vocabulary_is_checked_again_for_another",)),
    Mutant("an infinite lambda_grid accepted", "harness.py",
           "if any(map(math.isinf, values)):", "if kind is float and any(map(math.isinf, values)):",
           ("tests/test_harness.py::test_config_rejects_infinite_scalar_naming_the_key",)),
    Mutant("estimate_kl swaps p and q", "metrics.py",
           "for value in kl_rows(p, q).tolist():", "for value in kl_rows(q, p).tolist():",
           ("tests/test_metrics.py::test_estimate_kl_directions_and_mean",)),
    Mutant("the dense-row sum is used for a row with a zero", "dists.py",
           "for i in np.flatnonzero(~positive.all(axis=1)):", "for i in ():",
           ("tests/test_dists.py::test_kl_rows_equal_the_reference_row_by_row",)),
    Mutant("identical rows are not zeroed", "dists.py",
           "np.where((values > 0.0) & ~(p == q).all(axis=1), values, 0.0)",
           "np.where(values > 0.0, values, 0.0)",
           ("tests/test_dists.py::test_kl_rows_equal_the_reference_row_by_row",)),
    Mutant("the harness samples contexts unchecked", "harness.py",
           "validate_context(vocab, (vocab.bos_id,) + zone[s:s + length])",
           "(vocab.bos_id,) + zone[s:s + length]",
           ("tests/test_contexts.py::test_a_bench_walks_each_sampled_context_once",)),
    Mutant("n-gram counts drop the last gram", "models.py",
           "tokens[i:len(tokens) - order + 1 + i]", "tokens[i:len(tokens) - order + i]",
           ("tests/test_models.py::test_train_counts_equal_the_per_token_reference",)),
    Mutant("config paths not resolved", "harness.py",
           "values[key] = str(Path(path).parent / values[key])", "pass",
           ("tests/test_cli.py::test_config_paths_resolve_against_the_config_file",)),
    Mutant("the chain floor walks every depth", "tree.py",
           "if speedup < best:", "if False:",
           ("tests/test_tree.py::test_the_chain_floor_stops_once_deeper_chains_add_no_tokens",)),
    Mutant("a blend multiplies raw side values", "models.py",
           "self.lam * next_distribution(self.target, ctx)",
           "self.lam * self.target.distribution(ctx)",
           ("tests/test_contexts.py::test_a_blend_with_a_list_side_converts_it",
            "tests/test_contexts.py::test_a_blend_side_must_be_a_distribution_on_its_own"),
           more=(("(1.0 - self.lam) * next_distribution(self.draft_base, ctx)",
                  "(1.0 - self.lam) * self.draft_base.distribution(ctx)"),)),
    Mutant("validate_distribution skips the length check", "dists.py",
           "if size is not None and probs.size != size:", "if False:",
           ("tests/test_dists.py::test_validate_rejects_bad_shape_and_size",
            "tests/test_contexts.py::test_a_bad_blend_side_is_a_one_line_input_error")),
    Mutant("the entropy gate expands at the threshold", "tree.py",
           "row.entropy < threshold", "row.entropy <= threshold",
           ("tests/test_tree.py::test_a_row_at_the_exact_threshold_expands_max_branch_children",)),
    Mutant("load_model reports its own InputError as malformed", "models.py",
           "    except InputError as exc:\n"
           "        raise InputError(f\"model file {path}: {exc}\") from exc\n"
           "    except (KeyError, TypeError, ValueError, OverflowError) as exc:\n"
           "        raise InputError(f\"model file {path} is malformed: {exc!r}\") from exc\n",
           "    except (KeyError, TypeError, ValueError, OverflowError) as exc:\n"
           "        raise InputError(f\"model file {path} is malformed: {exc!r}\") from exc\n"
           "    except InputError as exc:\n"
           "        raise InputError(f\"model file {path}: {exc}\") from exc\n",
           ("tests/test_models.py::test_an_ngram_model_checks_its_count_tables_for_every_caller",)),
    Mutant("emission not cut to max_tokens", "decode.py",
           "emitted = emitted[: max_tokens - len(out)]", "pass",
           ("tests/test_decode.py::test_truncated_final_cycle_keeps_exact_length",)),
    Mutant("the overflow test misses an overflow of one", "decode.py",
           "if len(out) + len(emitted) > max_tokens:",
           "if len(out) + len(emitted) > max_tokens + 1:",
           ("tests/test_decode.py::test_every_max_tokens_cuts_the_final_cycle_to_fit",)),
    Mutant("no stop at an emitted EOS", "decode.py",
           "if eos in emitted:", "if False:",
           ("tests/test_decode.py::test_speculative_stops_at_accepted_eos",)),
    Mutant("the bonus left out of the next context", "decode.py",
           "ctx += emitted", "ctx += accepted",
           ("tests/test_decode.py::test_speculative_equals_greedy_seeded_sample",)),
    Mutant("the decode never trims to its window", "decode.py",
           "keep = _keep(draft, target)", "keep = slice(None)",
           ("tests/test_contexts.py::"
            "test_long_outputs_match_greedy_on_contexts_of_window_plus_depth",)),
    Mutant("run_matrix compares tokens with themselves", "harness.py",
           "if tokens != baseline:", "if tokens != tokens:",
           ("tests/test_cli.py::test_bench_losslessness_violation_exits_three",)),
    Mutant("InputError mapped to exit code 2", "cli.py",
           'print(f"specdec: error: {exc}", file=sys.stderr)\n        return 1',
           'print(f"specdec: error: {exc}", file=sys.stderr)\n        return 2',
           ("tests/test_cli.py::test_report_rejects_non_report_json",)),
    Mutant("emit_report accepts unverified records", "harness.py",
           "if any(not r.losslessness_verified for r in records):", "if False:",
           ("tests/test_harness.py::test_emit_report_rejects_bad_inputs",)),
    Mutant("emit_report skips report.json", "harness.py",
           'json_path.write_text(text + "\\n", encoding="utf-8")', "pass",
           ("tests/test_cli.py::test_bench_and_report_round_trip",)),
    Mutant("gamma divides by the wrong counter", "metrics.py",
           "self.emitted_tokens / self.cycles", "self.target_contexts_scored / self.cycles",
           ("tests/test_metrics.py::test_gamma_basic",)),
)


def run(mutants, copy: Path) -> int:
    # The derandomized hypothesis profile (tests/conftest.py) draws the same
    # examples on every run, so a verdict never rests on a lucky draw.
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "HYPOTHESIS_PROFILE": "derandomized"}
    caught = 0
    for m in mutants:
        path = copy / "src" / "specdec" / m.file
        text = mutated = path.read_text(encoding="utf-8")
        stale = [old for old, _ in m.edits if text.count(old) != 1]
        if stale:
            print(f"STALE     {m.name}: {stale[0]!r} does not occur exactly once in {m.file}")
            continue
        for old, new in m.edits:
            mutated = mutated.replace(old, new)
        path.write_text(mutated, encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *m.tests],
                cwd=copy, env=env, capture_output=True, text=True,
            )
        finally:
            path.write_text(text, encoding="utf-8")
        ok = proc.returncode == 1
        caught += ok
        status = "caught" if ok else f"SURVIVED (pytest exit {proc.returncode})"
        print(f"{status:9s} {m.name}", flush=True)
    return caught


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}  [{m.file}]")
        return 0
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench-out"))
        caught = run(chosen, copy)
    print(f"{caught}/{len(chosen)} caught")
    return 0 if caught == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
