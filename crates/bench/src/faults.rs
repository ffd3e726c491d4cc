//! Harness-side entry points to the fault-injection seam.
//!
//! The seam itself (wrappers, rule matching, arming) lives in
//! [`btbx_core::faults`] so every crate in the stack — the trace
//! container layer included — can route I/O through it; this module
//! re-exports it and adds what only the harness needs: JSON plan files
//! and environment arming.
//!
//! A plan is armed one way: the `BTBX_FAULT_PLAN` environment variable,
//! holding either inline JSON (first byte `{`) or a file path. `btbx`
//! arms it in `main`, before any subcommand runs, so every subcommand
//! runs under it.
//!
//! See EXPERIMENTS.md ("Fault injection") for the plan format.

pub use btbx_core::faults::{
    arm, armed, disarm, ErrKind, FaultGuard, FaultOp, FaultPlan, FaultRule,
};

use std::path::Path;

/// Environment variable arming a fault plan process-wide: inline JSON
/// when it starts with `{`, a plan-file path otherwise.
pub const FAULT_PLAN_ENV: &str = "BTBX_FAULT_PLAN";

/// Parse a plan from JSON text.
///
/// # Errors
///
/// A human-readable message naming what failed to parse.
pub fn parse_plan(json: &str) -> Result<FaultPlan, String> {
    serde_json::from_str(json).map_err(|e| format!("bad fault plan JSON: {e}"))
}

/// Load a plan from a JSON file.
///
/// # Errors
///
/// A human-readable message naming the file and what failed.
pub fn load_plan(path: &Path) -> Result<FaultPlan, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read fault plan {}: {e}", path.display()))?;
    parse_plan(&text)
}

/// Arm the plan named by [`FAULT_PLAN_ENV`], if set. Returns the guard
/// keeping it armed (hold it for the process lifetime).
///
/// # Errors
///
/// A human-readable message when the variable is set but unusable —
/// callers should treat that as fatal rather than silently running
/// without the requested faults.
pub fn arm_from_env() -> Result<Option<FaultGuard>, String> {
    let Ok(value) = std::env::var(FAULT_PLAN_ENV) else {
        return Ok(None);
    };
    if value.trim().is_empty() {
        return Ok(None);
    }
    let plan = if value.trim_start().starts_with('{') {
        parse_plan(&value)?
    } else {
        load_plan(Path::new(&value))?
    };
    Ok(Some(arm(plan)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_file_plans_parse() {
        let json = r#"{"seed":9,"rules":[{"op":"Write","kind":"Enospc","path":"cache","nth":2}]}"#;
        let plan = parse_plan(json).unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.rules.len(), 1);
        assert_eq!(plan.rules[0].kind, ErrKind::Enospc);
        assert_eq!(plan.rules[0].nth, 2);
        assert_eq!(plan.rules[0].count, 1, "count defaults to 1");

        let path = std::env::temp_dir().join(format!("btbx-plan-{}.json", std::process::id()));
        std::fs::write(&path, json).unwrap();
        assert_eq!(load_plan(&path).unwrap(), plan);
        let _ = std::fs::remove_file(&path);

        assert!(parse_plan("not json").is_err());
        assert!(load_plan(Path::new("/nonexistent/plan.json")).is_err());
    }
}
