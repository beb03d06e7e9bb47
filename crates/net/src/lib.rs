//! Shared-nothing messaging substrate for ElGA (paper §3.5).
//!
//! The paper builds on ZeroMQ and uses exactly three communication
//! patterns, all reproduced here:
//!
//! * **REQ/REP** for low-latency blocking client queries
//!   ([`Transport::request`]; [`Transport::request_all`] has the
//!   requests to many destinations in flight together);
//! * **PUSH** for medium-latency non-blocking sends, with explicit
//!   acknowledgements sent as a PUSH in return ([`Transport::sender`] /
//!   [`Outbox::send`]);
//! * **PUB/SUB** for high-latency broadcasts — directory updates and
//!   synchronization barriers — filtered by the *first byte* of each
//!   message, ElGA's packet type ([`Transport::bind_publisher`] /
//!   [`Transport::subscribe`]).
//!
//! Two interchangeable backends implement the [`Transport`] trait:
//!
//! * [`inproc::InProcTransport`] — crossbeam channels inside one
//!   process. This is the default for the scaled-down cluster
//!   simulation (ZeroMQ's `inproc://` analog).
//! * [`tcp::TcpTransport`] — length-prefixed frames over real sockets
//!   (`tcp://` analog), exercising the identical wire protocol across
//!   OS connections; used by the cross-process example and the §3.5
//!   latency benchmark.
//!
//! Every message is a [`Frame`]: a byte buffer whose first byte is the
//! packet type, exactly as in the paper ("The first byte of any message
//! is a packet type", §3.5).

#![warn(missing_docs)]

pub mod addr;
pub mod coalesce;
pub mod fault;
pub mod frame;
pub mod inproc;
pub mod retry;
mod rx;
pub mod tcp;
pub mod transport;

pub use addr::Addr;
pub use coalesce::{CoalesceConfig, CoalesceStats, CoalescingOutbox};
pub use fault::{FaultPlan, FaultStats, FaultyTransport, LinkBreak, SplitMix64};
pub use frame::{Frame, FrameReader};
pub use inproc::InProcTransport;
pub use retry::{SendPolicy, TransportExt};
pub use tcp::TcpTransport;
pub use transport::{
    Delivery, Mailbox, NetError, NetStats, Outbox, Publisher, ReplyHandle, Transport,
};
