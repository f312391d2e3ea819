//! Lane equivalence: the fast lane (`MachineConfig::psi_compiled()`,
//! measurement off — fused ops, superinstruction chaining,
//! packetized microstep charging) must be observationally identical
//! to the fidelity lane (`MachineConfig::psi()`) for everything the
//! paper's tables derive from microstep accounting — solutions and
//! bindings, total steps, per-module tallies (Table 2), branch-field
//! tallies (Table 7), call/choice-point counts and indexing stats —
//! on every Table 1 row, under both indexing profiles, including
//! resource-budget trip points and panic containment.

mod lanes;

use lanes::Lane;
use psi::psi_machine::MachineConfig;

fn fast() -> [Lane; 1] {
    [("fast", MachineConfig::psi_compiled())]
}

#[test]
fn all_table1_rows_are_lane_invariant() {
    lanes::assert_table1_rows_match_fidelity(&fast());
}

#[test]
fn indexed_profile_is_lane_invariant() {
    lanes::assert_indexed_rows_match_fidelity(&fast());
}

#[test]
fn solution_bindings_are_lane_invariant() {
    lanes::assert_bindings_match_fidelity(&fast());
}

/// Every arm whose charges the lanes split, including those the
/// Table 1 rows may not reach.
#[test]
fn fused_arms_are_lane_invariant() {
    lanes::assert_fused_arms_match_fidelity(&fast());
}

#[test]
fn step_budget_exhaustion_is_lane_invariant() {
    lanes::assert_step_budget_trips_like_fidelity(&fast());
}

/// The fast lane was formerly called the throughput lane.
#[test]
fn fault_isolation_holds_in_the_throughput_lane() {
    lanes::assert_fault_isolation_holds(&fast());
}
