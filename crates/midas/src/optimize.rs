//! Base-side weave-time optimization of extension packages.
//!
//! Between admission analysis and shipping, a base runs the
//! `pmp-analyze` optimizing pipeline ([`pmp_analyze::opt`]) over a
//! package's advice bodies: interprocedural constant propagation and
//! folding, dead-code and unreachable-branch elimination, and
//! class-hierarchy devirtualisation — all translation-validated
//! against the same stack-depth verifier receivers run at admission,
//! so an optimized package can never fail a gate the original would
//! have passed.
//!
//! Only the aspect's method *bodies* change: metadata, bindings,
//! signatures, and permissions are untouched, so signing, crosscut
//! matching, versioning, and permission inference all behave
//! identically. Receivers re-verify whatever arrives — optimized or
//! not — and independently recompute hook-hoisting eligibility; they
//! never trust the base's optimization claims.

use crate::package::ExtensionPackage;
pub use pmp_analyze::opt::{MethodOptReport, OptReport};

/// Optimizes a package's advice bodies, returning the optimized
/// package and the deterministic per-method report.
pub fn optimize_package(pkg: &ExtensionPackage) -> (ExtensionPackage, OptReport) {
    let (aspect, report) = pmp_analyze::opt::optimize_aspect(&pkg.aspect);
    (
        ExtensionPackage {
            meta: pkg.meta.clone(),
            aspect,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::ExtensionMeta;
    use pmp_prose::{Crosscut, PortableAspect, PortableBinding, PortableClass, PortableMethod};
    use pmp_vm::op::{BytecodeBody, Const, Op};

    fn pkg() -> ExtensionPackage {
        ExtensionPackage {
            meta: ExtensionMeta {
                id: "hall/t".into(),
                version: 1,
                description: "test".into(),
                requires: vec![],
                permissions: vec![],
            implicit: false,
            },
            aspect: PortableAspect {
                name: "t".into(),
                class: PortableClass {
                    name: "T".into(),
                    fields: vec![],
                    methods: vec![PortableMethod {
                        name: "onCall".into(),
                        params: vec!["any".into(); 5],
                        ret: "any".into(),
                        body: BytecodeBody {
                            extra_locals: 0,
                            ops: vec![
                                Op::Const(Const::Int(2)),
                                Op::Const(Const::Int(2)),
                                Op::Add,
                                Op::Pop,
                                Op::Ret,
                            ],
                            handlers: vec![],
                        },
                    }],
                },
                bindings: vec![PortableBinding {
                    crosscut: Crosscut::parse("before * X.*(..)").unwrap(),
                    method: "onCall".into(),
                    priority: 0,
                }],
            },
        }
    }

    #[test]
    fn optimization_preserves_meta_and_shrinks_body() {
        let p = pkg();
        let (opt, report) = optimize_package(&p);
        assert_eq!(opt.meta, p.meta);
        assert!(report.all_validated());
        assert_eq!(opt.aspect.class.methods[0].body.ops, vec![Op::Ret]);
        assert_eq!(report.total_removed(), 4);
    }
}
