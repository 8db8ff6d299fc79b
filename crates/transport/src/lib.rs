#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! RMI wire layer for the ElasticRMI reproduction (paper §2.3).
//!
//! Three layers live here, mirroring what Java RMI gives the paper for free:
//!
//! 1. **Marshalling** — [`to_bytes`]/[`from_bytes`], a compact binary serde
//!    format standing in for Java object serialization (see [`mod@wire`]'s
//!    module docs for the encoding).
//! 2. **Endpoints** — [`EndpointId`], [`Mailbox`] and the [`Network`] trait:
//!    opaque datagrams between addressable endpoints.
//! 3. **Transports** — [`InProcNetwork`] (channels within one process, with
//!    crash/partition fault injection for tests) and [`TcpHost`] (real
//!    sockets, frame-delimited).
//!
//! [`buffers`] recycles the payload buffers that cross threads on the way.
//!
//! The RMI *protocol* — requests, responses, redirects, pool-control
//! messages — is defined one layer up, in the `elasticrmi` crate; this crate
//! only moves bytes.

pub mod buffers;
pub mod testutil;
pub mod wire;

mod endpoint;
mod inproc;
mod poller;
mod tcp;

pub use endpoint::{Datagram, EndpointId, Host, Mailbox, Network, RecvError, SendError};
pub use inproc::InProcNetwork;
pub use tcp::{TcpHost, TcpStats, LINK_HIGH_WATER_BYTES};
pub use wire::{from_bytes, to_bytes, WireError};
