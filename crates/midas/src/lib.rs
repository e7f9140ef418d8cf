//! # pmp-midas — MIddleware for ADaptive Services
//!
//! The extension-management layer of *A Proactive Middleware Platform
//! for Mobile Computing* (Middleware 2003, §3.2). MIDAS sits on top of
//! PROSE and provides, over the simulated wireless network:
//!
//! * **extension distribution** — an [`base::ExtensionBase`] discovers
//!   adaptation services ([`receiver::AdaptationService`]) through the
//!   Jini-like registrar and pushes its signed catalog to newcomers, in
//!   dependency order (implicit extensions like session management go
//!   first);
//! * **locality of adaptations** — every delivered extension is leased;
//!   the base keeps leases alive while the node stays in its area, and
//!   the receiver autonomously withdraws extensions whose lease lapses,
//!   notifying each extension's shutdown procedure;
//! * **security** — every extension instance is signed
//!   ([`package::SignedExtension`]); receivers verify the signer against
//!   their trust store and cap the extension's sandbox permissions per
//!   signer ([`policy::ReceiverPolicy`]);
//! * **evolution** — bases replace extensions on live nodes when the
//!   local policy changes, and hand roaming nodes off to neighbour
//!   bases.
//!
//! Both ends are message-driven state machines over
//! [`pmp_net::Simulator`]; `pmp-core` wires them to each node's VM and
//! PROSE weaver.

pub mod base;
pub mod catalog;
pub mod durable;
pub mod optimize;
pub mod package;
pub mod policy;
pub mod proto;
pub mod receiver;

pub use base::{BaseEvent, ExtensionBase, RoamEntry};
pub use catalog::Catalog;
pub use optimize::{optimize_package, OptReport};
pub use package::{ExtensionMeta, ExtensionPackage, SignedExtension};
pub use policy::{AnalysisPolicy, ReceiverPolicy};
pub use proto::{MidasMsg, CHANNEL};
pub use receiver::{AdaptationService, ReceiverEvent};
