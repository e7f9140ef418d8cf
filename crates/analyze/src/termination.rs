//! Pass 3 — termination / fuel-bound analysis.
//!
//! Advice runs inline inside the application's own call path; an
//! advice body that never terminates wedges the node. True termination
//! is undecidable, so the pass settles for the decidable question that
//! matters operationally: *does the body contain a loop, and if so,
//! will anything bound it at run time?* A loop in our bytecode always
//! requires a back-edge (a jump to a pc at or before the jump itself),
//! so back-edges are detected syntactically and judged against the
//! fuel budget the weaver will impose:
//!
//! * fuel budget present (every `midas::receiver` weave) — the loop is
//!   bounded by fuel; reported as [`Severity::Info`] so operators can
//!   see which extensions loop.
//! * no fuel budget — the loop may never terminate; reported as
//!   [`Severity::Warning`].

use crate::{AnalyzeOptions, Finding, Pass, Severity};
use pmp_prose::{PortableClass, PortableMethod};
use pmp_vm::op::Flow;

/// Scans every method of a shipped class for back-edges.
pub fn check_class(class: &PortableClass, opts: &AnalyzeOptions) -> Vec<Finding> {
    class
        .methods
        .iter()
        .flat_map(|m| check_method(m, opts))
        .collect()
}

/// Scans one method for back-edges.
pub fn check_method(method: &PortableMethod, opts: &AnalyzeOptions) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (pc, op) in method.body.ops.iter().enumerate() {
        let target = match op.effect().2 {
            Flow::Jump(t) | Flow::Branch(t) => t as usize,
            _ => continue,
        };
        if target <= pc {
            let (severity, note) = if opts.fueled {
                (Severity::Info, "loop is bounded only by the advice fuel budget")
            } else {
                (
                    Severity::Warning,
                    "loop has no fuel budget and may never terminate",
                )
            };
            findings.push(Finding::new(
                severity,
                Pass::Termination,
                &method.name,
                Some(pc),
                format!("back-edge to pc {target}: {note}"),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_vm::op::{BytecodeBody, Op};

    fn method(ops: Vec<Op>) -> PortableMethod {
        PortableMethod {
            name: "m".into(),
            params: vec![],
            ret: "any".into(),
            body: BytecodeBody {
                extra_locals: 0,
                ops,
                handlers: vec![],
            },
        }
    }

    #[test]
    fn straight_line_code_has_no_findings() {
        let m = method(vec![Op::Nop, Op::Jump(2), Op::Ret]);
        assert!(check_method(&m, &AnalyzeOptions::default()).is_empty());
    }

    #[test]
    fn back_edge_is_info_under_fuel() {
        let m = method(vec![Op::Nop, Op::Jump(0)]);
        let f = check_method(&m, &AnalyzeOptions::default());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].severity, Severity::Info);
        assert_eq!(f[0].pc, Some(1));
    }

    #[test]
    fn back_edge_without_fuel_is_a_warning() {
        let m = method(vec![Op::Nop, Op::Jump(0)]);
        let opts = AnalyzeOptions {
            fueled: false,
            ..AnalyzeOptions::default()
        };
        let f = check_method(&m, &opts);
        assert_eq!(f[0].severity, Severity::Warning);
        assert!(f[0].message.contains("may never terminate"));
    }

    #[test]
    fn self_jump_counts_as_back_edge() {
        let m = method(vec![Op::Jump(0)]);
        assert_eq!(check_method(&m, &AnalyzeOptions::default()).len(), 1);
    }
}
