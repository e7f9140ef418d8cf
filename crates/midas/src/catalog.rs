//! The base station's extension catalog.

use crate::package::SignedExtension;
use std::collections::{BTreeMap, BTreeSet};

/// Holds the signed extensions a base distributes, with dependency
/// resolution and versioning.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    pub(crate) by_id: BTreeMap<String, SignedExtension>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces, if the version is not lower) an extension.
    /// Returns the previous entry when replaced.
    pub fn put(&mut self, ext: SignedExtension) -> Option<SignedExtension> {
        let Ok(pkg) = ext.open() else {
            return None; // unreadable packages are not catalogued
        };
        if let Some(existing) = self.by_id.get(&pkg.meta.id) {
            if let Ok(old) = existing.open() {
                if old.meta.version > pkg.meta.version {
                    return None; // refuse downgrades
                }
            }
        }
        self.by_id.insert(pkg.meta.id.clone(), ext)
    }

    /// Removes an extension by id.
    pub fn remove(&mut self, id: &str) -> Option<SignedExtension> {
        self.by_id.remove(id)
    }

    /// Looks up an extension by id.
    pub fn get(&self, id: &str) -> Option<&SignedExtension> {
        self.by_id.get(id)
    }

    /// All ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        self.by_id.keys().cloned().collect()
    }

    /// Number of catalogued extensions.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Returns `true` if the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// The delivery order for the whole catalog: dependencies before
    /// dependents (topological; stable by id for determinism). Missing
    /// dependencies are skipped — the receiver will `RequestDep` them.
    ///
    /// Implicit extensions are never roots: they are included only when
    /// some non-implicit extension requires them (the paper's "when an
    /// extension that requires session information is added to a node,
    /// the session management extension is automatically also added").
    pub fn delivery_order(&self) -> Vec<String> {
        let mut order = Vec::new();
        let mut visiting = BTreeSet::new();
        let mut done = BTreeSet::new();
        for (id, ext) in &self.by_id {
            let implicit = ext.open().is_ok_and(|p| p.meta.implicit);
            if !implicit {
                self.visit(id, &mut visiting, &mut done, &mut order);
            }
        }
        order
    }

    /// The delivery order for one extension and its dependency closure.
    pub fn closure_of(&self, id: &str) -> Vec<String> {
        let mut order = Vec::new();
        let mut visiting = BTreeSet::new();
        let mut done = BTreeSet::new();
        self.visit(id, &mut visiting, &mut done, &mut order);
        order
    }

    fn visit(
        &self,
        id: &str,
        visiting: &mut BTreeSet<String>,
        done: &mut BTreeSet<String>,
        order: &mut Vec<String>,
    ) {
        if done.contains(id) || !visiting.insert(id.to_string()) {
            return; // done, or dependency cycle — break it
        }
        if let Some(ext) = self.by_id.get(id) {
            if let Ok(pkg) = ext.open() {
                for dep in &pkg.meta.requires {
                    self.visit(dep, visiting, done, order);
                }
            }
            order.push(id.to_string());
        }
        visiting.remove(id);
        done.insert(id.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{ExtensionMeta, ExtensionPackage};
    use pmp_crypto::KeyPair;
    use pmp_prose::{Aspect, PortableAspect, PortableClass};

    fn ext(id: &str, version: u32, requires: Vec<String>) -> SignedExtension {
        let aspect = Aspect::script(
            id.to_string(),
            PortableClass {
                name: format!("C{}", id.replace('/', "_")),
                fields: vec![],
                methods: vec![],
            },
            vec![],
        );
        let pkg = ExtensionPackage {
            meta: ExtensionMeta {
                id: id.into(),
                version,
                description: String::new(),
                requires,
                permissions: vec![],
                implicit: false,
            },
            aspect: PortableAspect::try_from(&aspect).unwrap(),
        };
        SignedExtension::seal("a", &KeyPair::from_seed(b"a"), &pkg)
    }

    #[test]
    fn put_get_remove() {
        let mut c = Catalog::new();
        c.put(ext("mon", 1, vec![]));
        assert_eq!(c.len(), 1);
        assert!(c.get("mon").is_some());
        assert!(c.remove("mon").is_some());
        assert!(c.is_empty());
    }

    #[test]
    fn versioning_refuses_downgrade() {
        let mut c = Catalog::new();
        c.put(ext("mon", 2, vec![]));
        c.put(ext("mon", 1, vec![]));
        assert_eq!(c.get("mon").unwrap().open().unwrap().meta.version, 2);
        c.put(ext("mon", 3, vec![]));
        assert_eq!(c.get("mon").unwrap().open().unwrap().meta.version, 3);
    }

    #[test]
    fn delivery_order_respects_dependencies() {
        let mut c = Catalog::new();
        c.put(ext("access-control", 1, vec!["session".into()]));
        c.put(ext("session", 1, vec![]));
        c.put(ext("monitoring", 1, vec![]));
        let order = c.delivery_order();
        let pos = |id: &str| order.iter().position(|x| x == id).unwrap();
        assert!(pos("session") < pos("access-control"));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn closure_of_single_extension() {
        let mut c = Catalog::new();
        c.put(ext("a", 1, vec!["b".into()]));
        c.put(ext("b", 1, vec!["c".into()]));
        c.put(ext("c", 1, vec![]));
        c.put(ext("unrelated", 1, vec![]));
        assert_eq!(c.closure_of("a"), ["c", "b", "a"]);
    }

    #[test]
    fn dependency_cycles_do_not_hang() {
        let mut c = Catalog::new();
        c.put(ext("a", 1, vec!["b".into()]));
        c.put(ext("b", 1, vec!["a".into()]));
        let order = c.delivery_order();
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn missing_dependencies_are_skipped() {
        let mut c = Catalog::new();
        c.put(ext("a", 1, vec!["ghost".into()]));
        assert_eq!(c.closure_of("a"), ["a"]);
    }
}
