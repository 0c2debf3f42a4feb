//! KDD — Keeping Data and Deltas in an endurable SSD cache.
//!
//! The primary contribution of the reproduced paper (ICPP 2016): an SSD
//! cache-management scheme for parity-based RAID that removes the small
//! write penalty on write hits (data is dispatched to RAID without a
//! parity update; stale parity is repaired by a background cleaner) while
//! extending SSD lifetime (only the compressed XOR *delta* of the old and
//! new page versions is written to flash, packed compactly into Delta
//! Zone pages).
//!
//! Two implementations share the same algorithmic core:
//!
//! * [`policy::KddPolicy`] — the *accounting* implementation driving the
//!   trace simulations (Figures 4–8): exact cache state, counted I/O;
//! * [`engine::KddEngine`] — the *prototype-style* implementation
//!   operating on real bytes against a real [`kdd_raid::RaidArray`] and
//!   [`kdd_blockdev::SsdDevice`], with genuine XOR deltas, compression,
//!   a serialised metadata log, and full §III-E failure recovery (power
//!   loss, SSD loss, HDD loss).
//!
//! Both keep their Delta Zone bookkeeping (delta locations, DEZ pages,
//! compaction picks, page packing) in one private module, `dez`.
//!
//! Supporting machinery: [`metalog`] (the circular persistent metadata
//! log), [`staging`] (the NVRAM delta staging buffer), [`config`].

#![warn(missing_docs)]

pub mod config;
mod dez;
pub mod engine;
pub mod metalog;
pub mod policy;
pub mod staging;

pub use config::KddConfig;
pub use engine::{KddEngine, WriteRequest};
pub use metalog::{CommitBatch, KeyEntry, LogEntry, MetaLog};
pub use policy::KddPolicy;
pub use staging::{DeltaPayload, StagingBuffer};
