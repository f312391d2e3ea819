//! Versioned machine snapshots (`psi-snapshot-v1`).
//!
//! A snapshot captures everything needed to rebuild a consulted,
//! never-run [`Machine`] template: the exact consulted source text,
//! the full [`MachineConfig`] (cache geometry, lane, budgets,
//! ablation flags), and an integrity fingerprint of the compiled code
//! image. [`restore`] recompiles the source deterministically and
//! verifies the fingerprint, so a snapshot taken by one build of the
//! compiler refuses — with a typed error, never a panic — to restore
//! on a build whose codegen would produce a different image.
//!
//! The format is one flat JSON line in the [`crate::json`] codec, the
//! same line shape as the event export and the `psi-server` wire
//! protocol. Nested structure is deliberately avoided: the config
//! flattens into `cache_*` / `limit_*` prefixed scalars.
//!
//! Snapshots are restricted to pre-run machines for the same reason
//! [`Machine::fork`] is: query compilation appends entry stubs to the
//! image, after which "recompile the source" no longer reproduces it.
//! The serving lifecycle this supports is load → snapshot → (persist,
//! ship, restart) → restore → fork per session.

use crate::json::{parse_object, JsonObject, ObjectBuilder};
use kl0::Program;
use psi_cache::{CacheConfig, WritePolicy};
use psi_core::{Measurement, PsiError, Result};
use psi_machine::{Machine, MachineConfig, ResourceLimits};
use std::time::Duration;

/// Schema tag of the current snapshot format.
pub const SNAPSHOT_SCHEMA: &str = "psi-snapshot-v1";

/// Serializes a consulted, never-run machine (plus the exact source
/// text it was consulted with) into one `psi-snapshot-v1` JSON line.
///
/// The caller supplies `source` because the machine does not retain
/// source text; it must be the exact text consulted (for pooled
/// machines, the pool key). The snapshot embeds a fingerprint of the
/// machine's compiled image, so a `source` that does not compile to
/// this machine's image is caught at [`restore`] time.
///
/// # Errors
///
/// [`PsiError::Snapshot`] when the machine has already compiled or
/// run a query (snapshots capture templates, not run state).
pub fn snapshot(machine: &Machine, source: &str) -> Result<String> {
    if !machine.is_pristine() {
        return Err(PsiError::Snapshot {
            detail: "snapshot requires a consulted, never-run machine".into(),
        });
    }
    let config = machine.config();
    let mut b = ObjectBuilder::new()
        .str("schema", SNAPSHOT_SCHEMA)
        .str("source", source)
        .u64("cycle_ns", config.cycle_ns)
        .bool("frame_buffering", config.frame_buffering)
        .bool("tail_recursion_opt", config.tail_recursion_opt)
        .bool("trace_memory", config.trace_memory)
        .bool("trace_events", config.trace_events)
        .bool("clause_indexing", config.clause_indexing)
        .str("measurement", config.measurement.label());
    b = match &config.cache {
        Some(c) => b
            .bool("cache", true)
            .u64("cache_capacity_words", c.capacity_words as u64)
            .u64("cache_block_words", c.block_words as u64)
            .u64("cache_ways", c.ways as u64)
            .str(
                "cache_policy",
                match c.policy {
                    WritePolicy::StoreIn => "store_in",
                    WritePolicy::StoreThrough => "store_through",
                },
            )
            .bool("cache_write_stack_no_fetch", c.write_stack_no_fetch)
            .u64("cache_hit_ns", c.hit_ns)
            .u64("cache_miss_ns", c.miss_ns)
            .u64("cache_memory_busy_ns", c.memory_busy_ns),
        None => b.bool("cache", false),
    };
    b = limits_fields(b, &config.limits);
    let image = machine.image();
    Ok(b.u64("image_words", image.heap().len() as u64)
        .u64("image_preds", image.predicates().len() as u64)
        .u64("image_fnv", image_fingerprint(machine))
        .finish())
}

/// Rebuilds a machine from a [`snapshot`] line: checks the schema
/// tag, reconstructs the [`MachineConfig`], recompiles the embedded
/// source, and verifies the restored image against the snapshot's
/// fingerprint. The result is a pristine template, bit-identical in
/// behaviour to the machine that was snapshotted (round-trip
/// regression-tested in `tests/fork.rs`).
///
/// # Errors
///
/// [`PsiError::Snapshot`] for a line that is not a snapshot object,
/// an unsupported schema version, an out-of-range or unknown-variant
/// field, or a fingerprint mismatch (the restoring build compiles the
/// source to a different image); [`PsiError::Syntax`] for a missing
/// or mistyped field; [`PsiError::Syntax`] / [`PsiError::Compile`] if
/// the embedded source no longer parses or compiles. Never panics.
pub fn restore(line: &str) -> Result<Machine> {
    let obj = parse_object(line).map_err(|e| PsiError::Snapshot {
        detail: format!("not a snapshot object: {e}"),
    })?;
    let schema = obj.str_field("schema").map_err(|_| PsiError::Snapshot {
        detail: "missing schema field".into(),
    })?;
    if schema != SNAPSHOT_SCHEMA {
        return Err(PsiError::Snapshot {
            detail: format!("unsupported schema `{schema}` (expected `{SNAPSHOT_SCHEMA}`)"),
        });
    }
    let source = obj.str_field("source")?.to_owned();
    let config = MachineConfig {
        cache: read_cache(&obj)?,
        cycle_ns: obj.u64_field("cycle_ns")?,
        limits: read_limits(&obj)?,
        frame_buffering: bool_field(&obj, "frame_buffering")?,
        tail_recursion_opt: bool_field(&obj, "tail_recursion_opt")?,
        trace_memory: bool_field(&obj, "trace_memory")?,
        trace_events: bool_field(&obj, "trace_events")?,
        clause_indexing: bool_field(&obj, "clause_indexing")?,
        // The lane. Older snapshots also carry a `compiled` flag,
        // ignored here: `measurement` alone selects the lane now.
        measurement: match obj.str_field("measurement")? {
            "fidelity" => Measurement::Full,
            "throughput" => Measurement::Off,
            other => {
                return Err(PsiError::Snapshot {
                    detail: format!("unknown measurement lane `{other}`"),
                })
            }
        },
    };
    let program = Program::parse(&source)?;
    let machine = Machine::load(&program, config)?;
    let image = machine.image();
    let (words, preds, fnv) = (
        image.heap().len() as u64,
        image.predicates().len() as u64,
        image_fingerprint(&machine),
    );
    let expect = (
        obj.u64_field("image_words")?,
        obj.u64_field("image_preds")?,
        obj.u64_field("image_fnv")?,
    );
    if (words, preds, fnv) != expect {
        return Err(PsiError::Snapshot {
            detail: format!(
                "restored image diverges from snapshot \
                 (got {words} words / {preds} preds / fnv {fnv:#x}, \
                 snapshot has {} / {} / {:#x}); \
                 the snapshot was produced by an incompatible compiler",
                expect.0, expect.1, expect.2
            ),
        });
    }
    Ok(machine)
}

/// FNV-1a over the raw encodings of every compiled code word — a
/// cheap, deterministic fingerprint of the image the consulted source
/// compiled to.
fn image_fingerprint(machine: &Machine) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in machine.image().heap() {
        for byte in w.raw().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn limits_fields(mut b: ObjectBuilder, l: &ResourceLimits) -> ObjectBuilder {
    // Unset budgets are omitted rather than written as null — the
    // flat codec has no null, and absence is the natural encoding of
    // "unlimited".
    if let Some(v) = l.max_steps {
        b = b.u64("limit_steps", v);
    }
    if let Some(v) = l.max_heap_words {
        b = b.u64("limit_heap_words", v as u64);
    }
    if let Some(v) = l.max_local_words {
        b = b.u64("limit_local_words", v as u64);
    }
    if let Some(v) = l.max_global_words {
        b = b.u64("limit_global_words", v as u64);
    }
    if let Some(v) = l.max_control_words {
        b = b.u64("limit_control_words", v as u64);
    }
    if let Some(v) = l.max_trail_words {
        b = b.u64("limit_trail_words", v as u64);
    }
    if let Some(v) = l.deadline {
        b = b.u64("limit_deadline_ms", v.as_millis() as u64);
    }
    b
}

fn read_limits(obj: &JsonObject) -> Result<ResourceLimits> {
    Ok(ResourceLimits {
        max_steps: opt_u64(obj, "limit_steps")?,
        max_heap_words: opt_u32(obj, "limit_heap_words")?,
        max_local_words: opt_u32(obj, "limit_local_words")?,
        max_global_words: opt_u32(obj, "limit_global_words")?,
        max_control_words: opt_u32(obj, "limit_control_words")?,
        max_trail_words: opt_u32(obj, "limit_trail_words")?,
        deadline: opt_u64(obj, "limit_deadline_ms")?.map(Duration::from_millis),
    })
}

fn read_cache(obj: &JsonObject) -> Result<Option<CacheConfig>> {
    if !bool_field(obj, "cache")? {
        return Ok(None);
    }
    Ok(Some(CacheConfig {
        capacity_words: u32_field(obj, "cache_capacity_words")?,
        block_words: u32_field(obj, "cache_block_words")?,
        ways: u32_field(obj, "cache_ways")?,
        policy: match obj.str_field("cache_policy")? {
            "store_in" => WritePolicy::StoreIn,
            "store_through" => WritePolicy::StoreThrough,
            other => {
                return Err(PsiError::Snapshot {
                    detail: format!("unknown cache policy `{other}`"),
                })
            }
        },
        write_stack_no_fetch: bool_field(obj, "cache_write_stack_no_fetch")?,
        hit_ns: obj.u64_field("cache_hit_ns")?,
        miss_ns: obj.u64_field("cache_miss_ns")?,
        memory_busy_ns: obj.u64_field("cache_memory_busy_ns")?,
    }))
}

fn bool_field(obj: &JsonObject, key: &str) -> Result<bool> {
    obj.get(key)
        .and_then(crate::json::JsonValue::as_bool)
        .ok_or_else(|| PsiError::Snapshot {
            detail: format!("field `{key}` missing or not a boolean"),
        })
}

fn u32_field(obj: &JsonObject, key: &str) -> Result<u32> {
    u32::try_from(obj.u64_field(key)?).map_err(|_| PsiError::Snapshot {
        detail: format!("field `{key}` exceeds 32 bits"),
    })
}

fn opt_u64(obj: &JsonObject, key: &str) -> Result<Option<u64>> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| PsiError::Snapshot {
            detail: format!("field `{key}` is not a non-negative integer"),
        }),
    }
}

fn opt_u32(obj: &JsonObject, key: &str) -> Result<Option<u32>> {
    match opt_u64(obj, key)? {
        None => Ok(None),
        Some(v) => u32::try_from(v).map(Some).map_err(|_| PsiError::Snapshot {
            detail: format!("field `{key}` exceeds 32 bits"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).";

    fn template(config: MachineConfig) -> Machine {
        Machine::load(&Program::parse(SRC).unwrap(), config).unwrap()
    }

    #[test]
    fn round_trip_restores_an_equivalent_pristine_machine() {
        let mut config = MachineConfig::psi_indexed();
        config.limits = ResourceLimits::unlimited()
            .with_max_steps(1_000_000)
            .with_deadline(Duration::from_secs(5));
        config.limits.max_heap_words = Some(1 << 20);
        let m = template(config);
        let line = snapshot(&m, SRC).unwrap();
        let restored = restore(&line).unwrap();
        assert!(restored.is_pristine());
        assert_eq!(restored.config().limits, m.config().limits);
        assert_eq!(restored.config().cache, m.config().cache);
        assert_eq!(
            restored.config().clause_indexing,
            m.config().clause_indexing
        );
        // Behavioural equivalence: the restored machine runs
        // bit-identically to the original.
        let mut a = m;
        let mut b = restored;
        assert_eq!(
            a.solve("app(X, Y, [1,2,3])", 9).unwrap(),
            b.solve("app(X, Y, [1,2,3])", 9).unwrap()
        );
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn run_machines_cannot_be_snapshotted() {
        let mut m = template(MachineConfig::psi());
        m.solve("app([], X, [1])", 1).unwrap();
        let err = snapshot(&m, SRC).unwrap_err();
        assert_eq!(err.wire_kind(), "snapshot");
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let m = template(MachineConfig::psi());
        let line = snapshot(&m, SRC).unwrap();
        let wrong = line.replace("psi-snapshot-v1", "psi-snapshot-v999");
        let err = restore(&wrong).unwrap_err();
        assert_eq!(err.wire_kind(), "snapshot");
        assert!(err.to_string().contains("psi-snapshot-v999"), "{err}");
    }

    #[test]
    fn tampered_fingerprint_is_a_typed_error_not_a_panic() {
        let m = template(MachineConfig::psi());
        let line = snapshot(&m, SRC).unwrap();
        let obj = parse_object(&line).unwrap();
        let fnv = obj.u64_field("image_fnv").unwrap();
        let tampered = line.replace(&fnv.to_string(), &(fnv ^ 1).to_string());
        let err = restore(&tampered).unwrap_err();
        assert_eq!(err.wire_kind(), "snapshot");
    }

    #[test]
    fn garbage_lines_are_typed_errors() {
        for line in ["", "not json", "{\"schema\":17}", "{\"x\":1}"] {
            let err = restore(line).unwrap_err();
            assert_eq!(err.wire_kind(), "snapshot", "{line:?}");
        }
    }

    #[test]
    fn uncached_fast_lane_config_survives_the_trip() {
        let mut config = MachineConfig::psi_compiled();
        config.cache = None;
        let m = template(config);
        let line = snapshot(&m, SRC).unwrap();
        let restored = restore(&line).unwrap();
        assert!(restored.config().cache.is_none());
        assert_eq!(restored.config().measurement, Measurement::Off);
    }
}
