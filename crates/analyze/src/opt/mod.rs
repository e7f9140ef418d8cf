//! The weave-time optimizing pipeline.
//!
//! Runs at the MIDAS base between admission analysis and shipping:
//! each advice method is rewritten by [`devirt`] (class-hierarchy
//! devirtualisation), then [`constprop`] + [`dce`] to a fixpoint, and
//! the optimized body is *translation-validated* by re-running the
//! admission stack-depth verifier ([`crate::verifier::verify_method`]).
//! A method that fails validation is reverted to its original body and
//! flagged in the report — optimization can therefore never ship a
//! body the receiver's own verifier would reject. [`hoist`] finally
//! computes which methods of the optimized class qualify for hook-check
//! hoisting on the receiving VM.
//!
//! The whole pipeline is deterministic: same input aspect, same
//! [`OptReport`] — the report's `Display` form is stable and used as a
//! golden artifact in tests.

pub mod constprop;
pub mod dce;
pub mod devirt;
pub mod hoist;

use crate::AnalyzeOptions;
use crate::Severity;
use pmp_prose::PortableAspect;
use std::fmt;

/// Upper bound on constprop/DCE fixpoint rounds per method. Each
/// round either rewrites something or terminates the loop, and a
/// method body only shrinks, so this is a safety valve, not a tuning
/// knob.
const MAX_ROUNDS: usize = 8;

/// Per-method outcome of the optimizing pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodOptReport {
    /// Method name.
    pub method: String,
    /// Op count before optimization.
    pub before: usize,
    /// Op count after optimization (equals `before` when reverted).
    pub after: usize,
    /// `CallV` sites devirtualised to `CallDirect`.
    pub devirtualized: usize,
    /// Pure ops folded to constants.
    pub folded: usize,
    /// Conditional branches resolved statically.
    pub branches_folded: usize,
    /// Calls to constant-summary siblings eliminated.
    pub calls_inlined: usize,
    /// Ops removed by dead-code elimination.
    pub removed: usize,
    /// Whether the optimized body re-passed the admission verifier.
    /// `false` means the method was reverted to its original body.
    pub validated: bool,
}

/// Deterministic report of one class's optimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptReport {
    /// The optimized class name.
    pub class: String,
    /// Per-method reports, in class declaration order.
    pub methods: Vec<MethodOptReport>,
    /// Methods whose hook checks may be hoisted, sorted.
    pub hoisted: Vec<String>,
}

impl OptReport {
    /// Total ops removed across all validated methods.
    pub fn total_removed(&self) -> usize {
        self.methods
            .iter()
            .filter(|m| m.validated)
            .map(|m| m.before - m.after)
            .sum()
    }

    /// Whether every optimized method re-passed the verifier.
    pub fn all_validated(&self) -> bool {
        self.methods.iter().all(|m| m.validated)
    }
}

impl fmt::Display for OptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "class {}", self.class)?;
        for m in &self.methods {
            write!(
                f,
                "  {}: {} -> {} ops (devirt {}, fold {}, branch {}, inline {}, dce {})",
                m.method,
                m.before,
                m.after,
                m.devirtualized,
                m.folded,
                m.branches_folded,
                m.calls_inlined,
                m.removed,
            )?;
            if !m.validated {
                write!(f, " [reverted]")?;
            }
            writeln!(f)?;
        }
        if self.hoisted.is_empty() {
            writeln!(f, "  hoist: -")
        } else {
            writeln!(f, "  hoist: {}", self.hoisted.join(", "))
        }
    }
}

/// Optimizes every method of `aspect`'s class and returns the
/// optimized aspect plus the report. Bindings and metadata are
/// untouched — only method bodies change, so crosscut matching,
/// permission inference, and signatures are unaffected.
pub fn optimize_aspect(aspect: &PortableAspect) -> (PortableAspect, OptReport) {
    let mut out = aspect.clone();
    let opts = AnalyzeOptions::default();
    let sums = constprop::summaries(&aspect.class);

    let mut methods = Vec::with_capacity(out.class.methods.len());
    for idx in 0..out.class.methods.len() {
        let original = out.class.methods[idx].body.clone();
        let before = original.ops.len();

        let devirtualized = devirt::devirtualize(&mut out.class, idx);
        let mut stats = constprop::ConstpropStats::default();
        let mut removed = 0usize;
        for _ in 0..MAX_ROUNDS {
            let (round, nops) = constprop::propagate(&mut out.class, idx, &sums);
            stats.folded += round.folded;
            stats.branches += round.branches;
            stats.calls += round.calls;
            let swept = dce::eliminate(&mut out.class.methods[idx].body);
            removed += swept;
            if !round.any(nops) && swept == 0 {
                break;
            }
        }

        let m = &mut out.class.methods[idx];
        let changed = m.body != original;
        // Translation validation: the optimized body must re-pass the
        // exact verifier admission runs. Any Error reverts the method.
        let validated = !changed
            || !crate::verifier::verify_method(m, &opts)
                .iter()
                .any(|fdg| fdg.severity == Severity::Error);
        if !validated {
            m.body = original;
        }
        let after = m.body.ops.len();
        methods.push(MethodOptReport {
            method: m.name.clone(),
            before,
            after,
            devirtualized,
            folded: stats.folded,
            branches_folded: stats.branches,
            calls_inlined: stats.calls,
            removed,
            validated,
        });
    }

    let hoisted = hoist::hoistable_methods(&out.class);
    let report = OptReport {
        class: out.class.name.clone(),
        methods,
        hoisted,
    };
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_prose::{Crosscut, PortableBinding, PortableClass, PortableMethod};
    use pmp_vm::op::{BytecodeBody, Const, Op};

    fn method(name: &str, nparams: usize, ops: Vec<Op>) -> PortableMethod {
        PortableMethod {
            name: name.into(),
            params: vec!["any".into(); nparams],
            ret: "any".into(),
            body: BytecodeBody {
                extra_locals: 0,
                ops,
                handlers: vec![],
            },
        }
    }

    fn aspect(methods: Vec<PortableMethod>) -> PortableAspect {
        PortableAspect {
            name: "t".into(),
            class: PortableClass {
                name: "T".into(),
                fields: vec![],
                methods,
            },
            bindings: vec![PortableBinding {
                crosscut: Crosscut::parse("before * X.*(..)").unwrap(),
                method: "onCall".into(),
                priority: 0,
            }],
        }
    }

    #[test]
    fn pipeline_folds_branches_and_shrinks() {
        // if (1 + 1 == 2) return "fast"; else return "slow";
        let a = aspect(vec![method(
            "onCall",
            0,
            vec![
                Op::Const(Const::Int(1)),           // 0
                Op::Const(Const::Int(1)),           // 1
                Op::Add,                            // 2
                Op::Const(Const::Int(2)),           // 3
                Op::Eq,                             // 4
                Op::JumpIfNot(8),                   // 5
                Op::Const(Const::Str("fast".into())), // 6
                Op::RetVal,                         // 7
                Op::Const(Const::Str("slow".into())), // 8
                Op::RetVal,                         // 9
            ],
        )]);
        let (opt, report) = optimize_aspect(&a);
        assert!(report.all_validated());
        let m = &report.methods[0];
        assert!(m.folded >= 2, "{report}");
        assert_eq!(m.branches_folded, 1, "{report}");
        assert_eq!(
            opt.class.methods[0].body.ops,
            vec![Op::Const(Const::Str("fast".into())), Op::RetVal],
            "{report}"
        );
    }

    #[test]
    fn whole_pipeline_devirtualises_and_inlines() {
        let a = aspect(vec![
            method(
                "onCall",
                0,
                vec![
                    Op::Load(0),
                    Op::CallV {
                        method: "limit".into(),
                        argc: 0,
                    },
                    Op::RetVal,
                ],
            ),
            method("limit", 0, vec![Op::Const(Const::Int(99)), Op::RetVal]),
        ]);
        let (opt, report) = optimize_aspect(&a);
        assert!(report.all_validated());
        assert_eq!(report.methods[0].devirtualized, 1, "{report}");
        assert_eq!(report.methods[0].calls_inlined, 1, "{report}");
        assert_eq!(
            opt.class.methods[0].body.ops,
            vec![Op::Const(Const::Int(99)), Op::RetVal],
            "{report}"
        );
        // Both methods are pure: hook checks hoist.
        assert_eq!(report.hoisted, vec!["limit", "onCall"]);
    }

    #[test]
    fn report_rendering_is_stable() {
        let a = aspect(vec![method("onCall", 0, vec![Op::Ret])]);
        let (_, report) = optimize_aspect(&a);
        assert_eq!(
            report.to_string(),
            "class T\n  onCall: 1 -> 1 ops (devirt 0, fold 0, branch 0, inline 0, dce 0)\n  hoist: onCall\n"
        );
    }

    #[test]
    fn optimization_is_deterministic() {
        let a = aspect(vec![
            method(
                "onCall",
                2,
                vec![
                    Op::Const(Const::Int(6)),
                    Op::Const(Const::Int(7)),
                    Op::Mul,
                    Op::Pop,
                    Op::Load(0),
                    Op::CallV {
                        method: "k".into(),
                        argc: 0,
                    },
                    Op::RetVal,
                ],
            ),
            method("k", 0, vec![Op::Const(Const::Bool(false)), Op::RetVal]),
        ]);
        let (o1, r1) = optimize_aspect(&a);
        let (o2, r2) = optimize_aspect(&a);
        assert_eq!(o1.class.methods[0].body, o2.class.methods[0].body);
        assert_eq!(r1, r2);
        assert_eq!(r1.to_string(), r2.to_string());
    }

    #[test]
    fn a_swap_keeps_its_operands() {
        // Constant propagation once deleted both producers of a `Swap`
        // it kept, so validation reverted the whole method.
        for ops in [
            vec![
                Op::Const(Const::Int(1)),
                Op::Const(Const::Int(2)),
                Op::Swap,
                Op::Pop,
                Op::Pop,
                Op::Ret,
            ],
            vec![
                Op::Const(Const::Int(0)),
                Op::Const(Const::Int(-7)),
                Op::Swap,
                Op::Add,
                Op::Ret,
            ],
        ] {
            let (_, report) = optimize_aspect(&aspect(vec![method("onCall", 0, ops.clone())]));
            assert!(report.all_validated(), "{ops:?}\n{report}");
        }
    }

    #[test]
    fn side_effecting_bodies_survive_unchanged() {
        let a = aspect(vec![method(
            "onCall",
            0,
            vec![
                Op::Const(Const::Str("x".into())),
                Op::Sys {
                    name: "print".into(),
                    argc: 1,
                },
                Op::Pop,
                Op::Ret,
            ],
        )]);
        let (opt, report) = optimize_aspect(&a);
        assert_eq!(opt.class.methods[0].body, a.class.methods[0].body);
        assert!(report.all_validated());
        assert_eq!(report.total_removed(), 0);
        assert!(report.hoisted.is_empty());
    }
}
