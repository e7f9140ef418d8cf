//! Sandbox permissions.
//!
//! PROSE runs extension code "in a sandbox" using the platform security
//! model (paper §3.1). Here a [`Permissions`] set gates access to every
//! system operation the VM exposes; advice executes under the
//! intersection of what its package requested and what the receiving
//! node's policy grants the signer.

use std::fmt;

/// A single capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Permission {
    /// Write to the console / log output.
    Print,
    /// Read the (simulated) clock.
    Time,
    /// Send messages over the network port.
    Net,
    /// Append to / query the local store port.
    Store,
    /// Issue device (motor/sensor) commands.
    Device,
    /// Reflective queries about loaded classes and methods.
    Reflect,
}

impl Permission {
    const ALL_LIST: [Permission; 6] = [
        Permission::Print,
        Permission::Time,
        Permission::Net,
        Permission::Store,
        Permission::Device,
        Permission::Reflect,
    ];

    fn bit(self) -> u32 {
        match self {
            Permission::Print => 1 << 0,
            Permission::Time => 1 << 1,
            Permission::Net => 1 << 2,
            Permission::Store => 1 << 3,
            Permission::Device => 1 << 4,
            Permission::Reflect => 1 << 5,
        }
    }

    /// Parses the lowercase permission name used in package metadata.
    pub fn parse(s: &str) -> Option<Permission> {
        match s {
            "print" => Some(Permission::Print),
            "time" => Some(Permission::Time),
            "net" => Some(Permission::Net),
            "store" => Some(Permission::Store),
            "device" => Some(Permission::Device),
            "reflect" => Some(Permission::Reflect),
            _ => None,
        }
    }

    /// The lowercase wire name of this permission.
    pub fn name(self) -> &'static str {
        match self {
            Permission::Print => "print",
            Permission::Time => "time",
            Permission::Net => "net",
            Permission::Store => "store",
            Permission::Device => "device",
            Permission::Reflect => "reflect",
        }
    }
}

impl fmt::Display for Permission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// An immutable set of [`Permission`]s.
///
/// # Examples
///
/// ```
/// use pmp_vm::perm::{Permission, Permissions};
///
/// let p = Permissions::none().with(Permission::Net).with(Permission::Time);
/// assert!(p.allows(Permission::Net));
/// assert!(!p.allows(Permission::Device));
/// let capped = p.intersect(Permissions::none().with(Permission::Net));
/// assert!(!capped.allows(Permission::Time));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Permissions(u32);

impl Permissions {
    /// The empty set.
    pub fn none() -> Self {
        Permissions(0)
    }

    /// Every permission; what the hosting application itself runs with.
    pub fn all() -> Self {
        let mut p = Permissions(0);
        for perm in Permission::ALL_LIST {
            p.0 |= perm.bit();
        }
        p
    }

    /// Returns a copy with `perm` added.
    #[must_use]
    pub fn with(self, perm: Permission) -> Self {
        Permissions(self.0 | perm.bit())
    }

    /// Returns a copy with `perm` removed.
    #[must_use]
    pub fn without(self, perm: Permission) -> Self {
        Permissions(self.0 & !perm.bit())
    }

    /// Set intersection — used to cap a package's requested permissions
    /// by the receiver's policy for the signer.
    #[must_use]
    pub fn intersect(self, other: Permissions) -> Self {
        Permissions(self.0 & other.0)
    }

    /// Membership test.
    pub fn allows(self, perm: Permission) -> bool {
        self.0 & perm.bit() != 0
    }

    /// Returns `true` if every permission in `other` is also in `self`.
    pub fn covers(self, other: Permissions) -> bool {
        self.0 & other.0 == other.0
    }

    /// Iterates the contained permissions in declaration order.
    pub fn iter(self) -> impl Iterator<Item = Permission> {
        Permission::ALL_LIST
            .into_iter()
            .filter(move |p| self.allows(*p))
    }

    /// Builds a set from lowercase names, ignoring unknown ones.
    pub fn from_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Self {
        let mut p = Permissions::none();
        for n in names {
            if let Some(perm) = Permission::parse(n) {
                p = p.with(perm);
            }
        }
        p
    }

    /// The lowercase names of the contained permissions.
    pub fn names(self) -> Vec<String> {
        self.iter().map(|p| p.name().to_string()).collect()
    }
}

impl fmt::Display for Permissions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.names().join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_everything() {
        for p in Permission::ALL_LIST {
            assert!(Permissions::all().allows(p));
            assert!(!Permissions::none().allows(p));
        }
    }

    #[test]
    fn with_without() {
        let p = Permissions::none().with(Permission::Net);
        assert!(p.allows(Permission::Net));
        assert!(!p.without(Permission::Net).allows(Permission::Net));
    }

    #[test]
    fn intersect_caps() {
        let requested = Permissions::none()
            .with(Permission::Net)
            .with(Permission::Device);
        let policy = Permissions::none().with(Permission::Net).with(Permission::Print);
        let effective = requested.intersect(policy);
        assert!(effective.allows(Permission::Net));
        assert!(!effective.allows(Permission::Device));
        assert!(!effective.allows(Permission::Print));
    }

    #[test]
    fn covers_relation() {
        let big = Permissions::all();
        let small = Permissions::none().with(Permission::Time);
        assert!(big.covers(small));
        assert!(!small.covers(big));
        assert!(small.covers(Permissions::none()));
    }

    #[test]
    fn name_roundtrip() {
        for p in Permission::ALL_LIST {
            assert_eq!(Permission::parse(p.name()), Some(p));
        }
        assert_eq!(Permission::parse("bogus"), None);
    }

    #[test]
    fn from_names_ignores_unknown() {
        let p = Permissions::from_names(["net", "bogus", "time"]);
        assert!(p.allows(Permission::Net));
        assert!(p.allows(Permission::Time));
        assert!(!p.allows(Permission::Print));
    }

    #[test]
    fn display() {
        let p = Permissions::none().with(Permission::Print).with(Permission::Net);
        assert_eq!(p.to_string(), "{print,net}");
    }
}
