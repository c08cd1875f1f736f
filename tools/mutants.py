"""Mutation check: every listed mutant of ``src/`` must be killed by its tests.

A mutant is one small edit of one source file: the exact old text, which
must occur there exactly once, the new text, and the tests expected to
kill it.  The script copies ``src/`` to a temporary directory and runs
every killer against the unmutated copy, where all must pass.  Then it
applies one mutant at a time to the copy and runs that mutant's killers
against it.  Every run selects the Hypothesis profile ``mutants``
(``tests/conftest.py``), which does not shrink a failing example.  A
mutant is killed when they fail, or when they run past a timeout of
``TIMEOUT_FACTOR`` times the wall time of the unmutated run (a mutant can
make the event loop spin forever).  The check fails if a mutant survives,
if its old text no longer occurs exactly once, or if a killer fails on
the unmutated copy.  Mutants shown equivalent are listed apart with the
reason; their old text must still occur, so that the record stays true
to the code.

Run from anywhere, with pytest and hypothesis installed (as for the tests):

    python3 tools/mutants.py

The technique is mutation analysis (DeMillo, Lipton and Sayward, "Hints on
Test Data Selection", IEEE Computer 11(4), 1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# a mutant's killers are some of those the unmutated run takes together,
# so a mutant that runs this many times as long is taken to hang
TIMEOUT_FACTOR = 5
# a killer need only fail: the profile without Hypothesis's shrink phase
HYPOTHESIS_PROFILE = "mutants"


class Mutant(NamedTuple):
    name: str
    file: str        # relative to src/
    old: str
    new: str
    killers: tuple[str, ...]   # pytest node ids, relative to the repository root


SIM = "wfdsim/simulation.py"
LEARNING = "wfdsim/learning.py"
CLI = "wfdsim/cli.py"
PROTOCOL = "wfdsim/protocol.py"
DECIDED = "tests/test_simulation.py::TestDecidedTicks::test_"
ORACLE = "tests/test_properties.py::test_run_matches_the_reference_simulator"
PAIR_ORACLE = "tests/test_properties.py::test_pairs_that_do_not_learn_match_the_reference_simulator"
LEARNING_PAIR_ORACLE = "tests/test_properties.py::test_learning_pairs_match_the_reference_simulator"
LONG_ORACLE = "tests/test_properties.py::test_long_runs_match_the_reference_simulator"
BATCH_KILLERS = ("tests/test_golden.py", PAIR_ORACLE)
BULK_KILLERS = ("tests/test_properties.py::test_batch_loop_draws_as_negotiate_does",)
HOLD = "tests/test_simulation.py::TestHold::test_"
ATTACKER = "tests/test_simulation.py::TestAttackerDecisions::test_"
BOX = "tests/test_properties.py::test_records_within_the_hold_keep_the_no"
CORNER = "tests/test_properties.py::test_the_box_corner_gives_the_highest_bound"
SLACK_BUDGET = "tests/test_properties.py::test_seconds_within_the_slack_budget_keep_the_no"

MUTANTS = (
    # the guard's standing yes
    Mutant("verdict_stands_at_until", SIM, "if now < rec.until:", "if now <= rec.until:",
           ("tests/test_simulation.py::TestQuietInstant::test_quiet_span_after_a_lapsed_hold_says_no",)),
    # the round-one skip
    Mutant("owner_rechecked_from_round_three", SIM, "if quits and", "if quits > 1 and",
           ("tests/test_properties.py::test_pinned_populations_reach_their_sessions", ORACLE)),
    # an attacker's declared tie bit
    Mutant("forced_bit_makes_the_attacker_owner", SIM,
           "bit = rng.getrandbits(1) if force is None or rng.random() >= force else 0",
           "bit = rng.getrandbits(1) if force is None or rng.random() >= force else 1",
           (f"{ATTACKER}full_strength_always_grounds_bit[standard]", ORACLE)),
    Mutant("responder_bit_never_forced", SIM,
           "bit ^= rng.getrandbits(1) if force is None or rng.random() >= force else 0",
           "bit ^= rng.getrandbits(1)",
           (f"{ATTACKER}full_strength_always_grounds_bit[committed]",)),
    # the negotiation counter
    # (a pair that does not learn negotiates in the batch loop, so only
    # populations of three or more devices, or with a learner, reach this one)
    Mutant("retry_cap_one_short", SIM, "quits <= owner.retries", "quits < owner.retries",
           (ORACLE,)),
    Mutant("group_log_rounds", SIM, '"group", initiator.id, responder.id, owner.id, quits + 1',
           '"group", initiator.id, responder.id, owner.id, quits', (ORACLE, "tests/test_golden.py")),
    # decided runs of ticks
    Mutant("decided_ticks_stop_plus_one", SIM,
           "range(first, min(self.next_death.die_at, stop), period)",
           "range(first, min(self.next_death.die_at, stop) + 1, period)",
           ("tests/test_properties.py::test_tick_ledger", ORACLE)),
    # the pair step
    Mutant("learning_ticker_in_storm", SIM,
           "if dev.peers is None and pair_run(t, dev, peer):", "if pair_run(t, dev, peer):",
           ("tests/test_simulation.py::TestRefusalStorm::"
            "test_learning_ticker_refused_one_tick_at_a_time",)),
    Mutant("no_survivor_finish", SIM, "if not peer.alive:", "if False:",
           (f"{DECIDED}lone_survivor_ticks_are_not_popped",)),
    Mutant("no_survivor_finish_past_a_ticking_partner", SIM,
           "        if not peer.alive:\n"
           "            dev.skips_busy += len(self._decided_ticks(dev, t, self.horizon))\n"
           "            return True\n"
           "        if peer.period is not None:\n"
           "            return False\n",
           "        if peer.period is not None:\n"
           "            return False\n"
           "        if not peer.alive:\n"
           "            dev.skips_busy += len(self._decided_ticks(dev, t, self.horizon))\n"
           "            return True\n",
           (f"{DECIDED}lone_survivor_ticks_are_not_popped[ticking_victim]",)),
    Mutant("no_storm_step", SIM,
           "self._refuse(peer, dev, self._decided_ticks(dev, t, stop))\n"
           "                return True",
           "return False",
           (f"{DECIDED}refusal_storm_is_refused_in_one_call",)),
    # batched pair sessions
    Mutant("pair_batch_reaches_the_horizon", SIM,
           "k = min((self.horizon - t) // period,", "k = min((self.horizon - t) // period + 1,",
           ("tests/test_golden.py::test_run_json_digest[quit_and_retry]", PAIR_ORACLE)),
    Mutant("pair_batch_one_tick_long", SIM,
           "(left - top * duration) // worst + 1)", "(left - top * duration) // worst + 2)",
           (PAIR_ORACLE,)),
    Mutant("no_pair_batch", SIM, "if k <= 0:", "if True:",
           (f"{DECIDED}pair_sessions_are_batched", f"{DECIDED}learning_pair_sessions_are_batched")),
    Mutant("batch_under_a_standing_yes", SIM,
           "if self._rejects(peer, dev, t):   # a standing", "if False:   # a standing",
           (LEARNING_PAIR_ORACLE,)),
    # the box that holds a learner's no over a batch, and the guard's bound
    Mutant("memo_cell_flipped", LEARNING,
           "return _is_hostile(_posterior(*cell))",
           "return _is_hostile(_posterior(*cell)) != (cell == (2, 4, 0, 3))",
           ("tests/test_learning.py::TestHostileCells::test_each_cell_is_the_classifier_verdict",)),
    Mutant("box_without_the_depth_range", SIM,
           "range(max(history_depth(n), HistoryDepth.LIMITED), history_depth(top) + 1)",
           "(history_depth(n),)",
           (f"{HOLD}no_stands_until_the_history_can_turn_limited", BOX)),
    Mutant("box_one_record_short", SIM,
           "_may_flag(rec, (i + 1) * rounds - 1,", "_may_flag(rec, (i + 1) * rounds - 2,",
           (f"{HOLD}no_stands_until_the_history_can_turn_limited", BOX)),
    Mutant("box_ignores_retry_rounds", SIM,
           "_may_flag(rec, (i + 1) * rounds - 1,", "_may_flag(rec, i,",
           (f"{HOLD}no_stands_until_the_history_can_turn_limited[2-0]", BOX)),
    Mutant("box_past_midnight", SIM,
           "range(-((t - (day + 1) * SECONDS_PER_DAY) // period))",
           "range(-((t - (day + 2) * SECONDS_PER_DAY) // period))",
           (f"{HOLD}a_cleared_no_stands_to_midnight", BOX)),
    Mutant("top_bound_z_from_the_lower_regime", SIM,
           "min(top, max(n, edge - 1))", "min(top, max(n, edge))",
           (f"{HOLD}top_bound_takes_the_top_of_each_regime", CORNER)),
    Mutant("sparse_z_at_forty", SIM,
           "n < SPARSE_WINDOW_NEGOTIATIONS", "n <= SPARSE_WINDOW_NEGOTIATIONS",
           (f"{HOLD}bound_takes_the_z_of_its_regime",)),
    Mutant("limited_z_at_a_hundred", SIM,
           "n < AMPLE_NEGOTIATIONS", "n <= AMPLE_NEGOTIATIONS",
           (f"{HOLD}bound_takes_the_z_of_its_regime",)),
    Mutant("slack_budget_one_tick_long", SIM,
           "slack // (2 * duration) + 1", "slack // (2 * duration) + 2", (SLACK_BUDGET,)),
    # a slack no across midnights
    Mutant("span_ignores_expiring_days", SIM,
           "taken, slack = before, slack - (3 * bucket.comm_seconds - 5 * bucket.self_go_seconds)",
           "taken = before", (SLACK_BUDGET,)),
    Mutant("span_past_the_window", SIM,
           "return max(young, min(first, before))", "return max(young, first)",
           (SLACK_BUDGET,)),
    Mutant("span_day_group_on_its_start_day", SIM,
           "rec.record_group_time(end // SECONDS_PER_DAY,", "rec.record_group_time(day,",
           (LEARNING_PAIR_ORACLE,)),
    Mutant("young_pair_one_tick_long", SIM,
           "young = -((t - rec.since - MIN_PAIR_AGE_SECONDS) // period)",
           "young = -((t - rec.since - MIN_PAIR_AGE_SECONDS) // period) + 1",
           (f"{DECIDED}young_pair_sessions_are_batched", LEARNING_PAIR_ORACLE)),
    Mutant("batch_books_the_last_group_twice", SIM,
           "        dev_groups, peer_groups = dev_groups - (owner is dev), peer_groups - (owner is peer)\n",
           "", BATCH_KILLERS),
    Mutant("last_group_also_in_the_tally", SIM,
           "(by_peer - (late and day_owner is peer)) * duration,\n"
           "                                  (by_dev + by_peer - late) * duration)",
           "by_peer * duration,\n"
           "                                  (by_dev + by_peer) * duration)",
           (LEARNING_PAIR_ORACLE,)),
    Mutant("learner_tally_counts_sessions", SIM,
           "walked[1], rounds), drawn", "walked[1], len(ticks)), drawn",
           (LEARNING_PAIR_ORACLE, *BULK_KILLERS)),
    # the batch loop's own copy of the round rules
    Mutant("batch_retry_cap_one_short", SIM,
           "if quits > caps[bit]:", "if quits >= caps[bit]:",
           (f"{ATTACKER}quits_stop_at_retry_cap",
            *BATCH_KILLERS)),
    Mutant("batch_responder_bit_not_xored", SIM,
           "bit ^= getrandbits(1) if resp_force", "getrandbits(1) if resp_force", BATCH_KILLERS),
    Mutant("batch_exhausted_log_rounds", SIM,
           '"exhausted", *ids, "", quits, quits)', '"exhausted", *ids, "", quits + 1, quits)',
           BATCH_KILLERS),
    Mutant("batch_group_to_the_other_owner", SIM,
           "ones += bit\n", "ones += 1 - bit\n", BATCH_KILLERS),
    # a batch whose sessions each draw the same words, drawn in bulk
    Mutant("bulk_responder_bit_not_xored", SIM,
           "bits ^= int.from_bytes", "bits = int.from_bytes", BULK_KILLERS),
    Mutant("bulk_group_to_the_other_owner", SIM,
           "drawn.count(1), drawn[-1]", "drawn.count(0), drawn[-1]", BULK_KILLERS),
    Mutant("bulk_day_tally_to_the_other_owner", SIM,
           "by_dev = bits.count(1, start, stop)", "by_dev = bits.count(0, start, stop)",
           (LEARNING_PAIR_ORACLE,)),
    Mutant("bulk_deciding_byte_below_the_top", SIM, "4 * o + 3", "4 * o + 2", BULK_KILLERS),
    Mutant("bulk_never_forced_in_two_words", SIM,
           "0.0: (0, 0, 1)}", "0.0: (0, 1)}", BULK_KILLERS),
    Mutant("bulk_chunk_drops_its_last_session", SIM,
           "ticks[start:start + _BULK_SESSIONS]", "ticks[start:start + _BULK_SESSIONS - 1]",
           BULK_KILLERS),
    # the tick's one heap operation, and the order of ticks at one instant
    Mutant("tick_on_the_horizon", SIM,
           "if dev.alive and nxt < horizon:", "if dev.alive and nxt <= horizon:", (ORACLE,)),
    Mutant("dead_tick_replaced", SIM,
           "            if dev.alive and nxt < horizon:\n"
           "                self.seq += 1\n"
           "                replace(heap, (nxt, self.seq, dev))\n"
           "            else:\n"
           "                pop(heap)\n"
           "                if not dev.alive:\n"
           "                    continue\n",
           "            if nxt < horizon:\n"
           "                self.seq += 1\n"
           "                replace(heap, (nxt, self.seq, dev))\n"
           "            else:\n"
           "                pop(heap)\n"
           "            if not dev.alive:\n"
           "                continue\n",
           (f"{DECIDED}lone_survivor_ticks_are_not_popped",)),
    Mutant("tick_ties_to_the_later_push", SIM,
           "replace(heap, (nxt, self.seq, dev))", "replace(heap, (nxt, -self.seq, dev))", (ORACLE,)),
    # a group's one booking step
    Mutant("member_booked_at_owner_rate", SIM,
           "member.spent += (client - idle) * span", "member.spent += (go - idle) * span",
           ("tests/test_golden.py", ORACLE)),
    Mutant("next_death_ignores_an_earlier_member", SIM,
           "first = member if member.die_at < owner.die_at else owner", "first = owner",
           ("tests/test_simulation.py::TestDepletionAnchors::"
            "test_client_death_that_comes_first_is_found",)),
    # the day on which a learner books a group's time
    Mutant("group_time_on_its_start_day", SIM,
           "day = end - start, end // SECONDS_PER_DAY", "day = end - start, start // SECONDS_PER_DAY",
           (LONG_ORACLE,)),
    # the order of two deaths in one second
    Mutant("client_before_owner_on_a_tie", SIM,
           "                if group is not None and dev is group[1] and group[0].die_at == t:\n"
           "                    dev = group[0]   # the owner first (class docstring)\n",
           "", ("tests/test_golden.py::test_owner_resolves_first_when_the_client_is_found_first",
                "tests/test_golden.py::test_run_json_digest[owner_first_on_a_tie]", ORACLE)),
    # energy booking on a death mid-group
    Mutant("no_refund_past_a_death", SIM,
           "                    member.spent -= (_RATES[role] - _RATES[_IDLE]) * (end - t)\n",
           "", ("tests/test_golden.py", ORACLE)),
    Mutant("partner_death_not_retimed", SIM,
           "                self._set_role(client if dev is go else go, t)\n",
           "", ("tests/test_golden.py", ORACLE)),
    Mutant("cut_end_not_passed", SIM, "start, min(t, end))", "start, end)", (LONG_ORACLE,)),
    # the window's expiry and a result row's deviation
    Mutant("bucket_kept_a_day_too_long", LEARNING,
           "buckets[0].day <= cutoff", "buckets[0].day < cutoff",
           ("tests/test_learning.py::TestPeerProfileWindow::test_expiry_drops_whole_days",
            "tests/test_learning.py::TestPeerProfileWindow::test_window_totals_match_naive_recompute",
            "tests/test_golden.py::test_run_json_digest[hour_crowd]")),
    Mutant("population_deviation", CLI,
           "statistics.stdev(self.seed_days)", "statistics.pstdev(self.seed_days)",
           ("tests/test_cli.py::TestResultRow::test_summary_follows_seed_days",
            "tests/test_golden.py::test_preset_depletion_digest[attacker_ratio_5]")),
    # the handshake driver
    Mutant("probe_request_opening_unverified", PROTOCOL,
           "(probe and not verify(commit_a, open_a)) or ", "",
           ("tests/test_protocol.py::TestCommitmentHandshakes::"
            "test_tampered_reveal_is_caught[NegotiationMode.PROBE_COMMIT]",)),
    Mutant("coin_is_the_initiator_bit", PROTOCOL, "coin_flip(bit_a, bit_b)", "bit_a",
           ("tests/test_protocol.py::TestCommitmentHandshakes::test_owner_follows_xor_exhaustively",)),
    Mutant("tampered_claim_is_the_true_owner", PROTOCOL,
           "if inline and a.tamper_opening else outcome)", "if False else outcome)",
           ("tests/test_protocol.py::TestInlineCommitDetails::"
            "test_tampered_confirmation_names_the_owner_its_opening_implies",)),
    Mutant("no_abort_after_confirmation", PROTOCOL,
           "b.abort_after is AbortPhase.AFTER_CONFIRMATION", "False",
           ("tests/test_protocol.py::test_only_the_receiver_of_a_message_aborts_after_it",)),
)

# Mutants that no test can kill, each with the reason they are equivalent.
EXCLUDED = (
    (Mutant("hold_not_moved_past_storm", SIM,
            "until = refused[-1] + FLAG_HOLD_SECONDS", "until = refused[0] + FLAG_HOLD_SECONDS", ()),
     "equivalent: after a storm one device is dead or the horizon is reached, "
     "so nothing reads the hold again"),
    (Mutant("tie_takes_next_death", SIM,
            "if die_at < self.next_death.die_at:", "if die_at <= self.next_death.die_at:", ()),
     "equivalent: two deaths in one second show their order only within one group, "
     "and there the loop resolves the owner first whichever member is next_death"),
    (Mutant("death_at_group_end_cuts_it", SIM,
            "if t < end:\n                # cut short",
            "if t <= end:\n                # cut short", ()),
     "equivalent: at the idle rate of 1, a device that dies at its group's end has "
     "0 units left and is given back 0, so the rate its death interpolates at does not show"),
)


def apply(src: Path, mutant: Mutant) -> str | None:
    """Write ``mutant`` into the copy at ``src``; return the original text,
    or None when the old text does not occur there exactly once."""
    path = src / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return None
    path.write_text(text.replace(mutant.old, mutant.new))
    return text


def run_tests(src: Path, tests: tuple[str, ...], timeout: float | None = None) -> int | None:
    """pytest's exit code for ``tests`` against the copy at ``src``, or
    None when they run past ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             f"--hypothesis-profile={HYPOTHESIS_PROFILE}", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    failures = killed = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for mutant, reason in EXCLUDED:
            if (src / mutant.file).read_text().count(mutant.old) != 1:
                print(f"STALE     {mutant.name}: its old text no longer occurs once")
                failures += 1
            else:
                print(f"excluded  {mutant.name}: {reason}")
        killers = tuple(dict.fromkeys(t for m in MUTANTS for t in m.killers))
        started = time.monotonic()
        if run_tests(src, killers) != 0:
            print("the killers fail on the unmutated source")
            return 1
        timeout = TIMEOUT_FACTOR * (time.monotonic() - started)
        for mutant in MUTANTS:
            original = apply(src, mutant)
            if original is None:
                print(f"STALE     {mutant.name}: its old text no longer occurs once")
                failures += 1
                continue
            code = run_tests(src, mutant.killers, timeout)
            (src / mutant.file).write_text(original)
            if code is None:
                print(f"killed    {mutant.name}: its killers ran past {timeout:.0f} s")
                killed += 1
            elif code == 1:
                print(f"killed    {mutant.name}")
                killed += 1
            else:
                print(f"SURVIVED  {mutant.name}" if code == 0
                      else f"ERROR     {mutant.name}: pytest exited {code}")
                failures += 1
    print(f"{killed} of {len(MUTANTS)} mutants killed, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
