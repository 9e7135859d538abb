//! # atf-service — tuning as a service
//!
//! A daemon wrapping [`atf_core::session::TuningSession`] behind a
//! newline-delimited JSON protocol over TCP. The measuring side (the
//! client) owns the cost function; the service owns the search:
//!
//! ```text
//! client                                service
//!   | {"cmd":"open","kernel":"saxpy",...}  |   build space + technique
//!   |------------------------------------->|   -> session id
//!   | {"cmd":"next","session":"s1"}        |
//!   |------------------------------------->|   -> configuration to measure
//!   |   ... client measures the cost ...   |
//!   | {"cmd":"report","session":"s1",      |
//!   |  "cost":12.5}                        |   feed cost to the technique
//!   |------------------------------------->|
//!   |        ... until next -> done ...    |
//!   | {"cmd":"finish","session":"s1"}      |   result + merge into the
//!   |------------------------------------->|   tuning database
//! ```
//!
//! Sessions are independent and concurrent — a `poll(2)`-based reactor
//! owns every connection socket with a handful of event-loop threads and
//! a fixed handler pool over one shared, sharded session manager, so
//! thousands of mostly-idle connections cost file descriptors, not
//! threads. Sessions survive client reconnects (a session id is all the
//! state a client needs; every handout carries a ticket, and `open` with
//! `max_pending` lets several clients pull distinct configurations from
//! one session concurrently), and expire after a configurable idle period. Finished sessions merge their
//! best result into a [`atf_core::db::TuningDatabase`] monotonically —
//! the `lookup` command then serves known-best configurations without any
//! tuning.

#[cfg(not(target_family = "unix"))]
compile_error!("atf-service serves connections from a poll(2) reactor and builds on unix only");

pub mod chaos;
pub mod client;
pub mod manager;
pub mod proto;
pub(crate) mod reactor;
pub mod server;

pub use chaos::{ChaosCounters, ChaosPlan, ChaosProxy, ChaosState, ChaosTransport};
pub use client::{
    Client, ClientError, LoopbackClient, ReconnectingTransport, SessionSpec, TcpTransport,
    Transport, WireHandout,
};
pub use manager::{AdmissionConfig, ManagerConfig, SessionManager, TenantUsage, DEFAULT_TENANT};
pub use proto::{Request, Response};
pub use server::{Server, ServerConfig, ShutdownHandle};
