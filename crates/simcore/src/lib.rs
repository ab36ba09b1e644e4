//! Deterministic discrete-event simulation (DES) engine.
//!
//! `simcore` is the foundation of the TeaStore scale-up laboratory. It
//! provides the four ingredients every simulation in this workspace is built
//! from:
//!
//! * **Simulated time** — [`SimTime`] and [`SimDuration`], nanosecond-
//!   resolution newtypes with checked arithmetic ([`time`]).
//! * **An event calendar** — [`Calendar`], a priority queue of `(time,
//!   event)` pairs with stable FIFO tie-breaking and O(log n) cancellation
//!   via [`EventToken`]s ([`calendar`]).
//! * **Deterministic randomness** — [`Rng`] (xoshiro256++) and
//!   [`RngFactory`], which derives independent named streams from a single
//!   seed so that adding a consumer never perturbs existing ones ([`rng`]).
//! * **Streaming statistics** — [`stats::Welford`], [`stats::LogHistogram`],
//!   [`stats::TimeWeighted`] and friends for measuring simulations without
//!   storing per-sample data ([`stats`]).
//!
//! # Example
//!
//! A complete (if tiny) M/M/1 queue simulated to completion:
//!
//! ```
//! use simcore::{Calendar, SimTime, SimDuration, RngFactory};
//! use simcore::dist::{Distribution, Exp};
//! use simcore::stats::Welford;
//!
//! #[derive(Debug)]
//! enum Ev { Arrival, Departure }
//!
//! let mut cal = Calendar::new();
//! let factory = RngFactory::new(42);
//! let mut arr_rng = factory.stream("arrivals");
//! let mut svc_rng = factory.stream("service");
//! let arrivals = Exp::from_rate(0.5e-6); // one arrival per 2µs on average
//! let service = Exp::from_rate(1.0e-6); // 1µs mean service time
//!
//! let mut queue = 0u32;
//! let mut served = 0u32;
//! let mut wait = Welford::new();
//! cal.schedule(SimTime::ZERO, Ev::Arrival);
//! while let Some((now, ev)) = cal.pop() {
//!     if served >= 1000 { break; }
//!     match ev {
//!         Ev::Arrival => {
//!             queue += 1;
//!             if queue == 1 {
//!                 cal.schedule(now + service.sample_duration(&mut svc_rng), Ev::Departure);
//!             }
//!             cal.schedule(now + arrivals.sample_duration(&mut arr_rng), Ev::Arrival);
//!         }
//!         Ev::Departure => {
//!             queue -= 1;
//!             served += 1;
//!             wait.push(now.as_nanos() as f64);
//!             if queue > 0 {
//!                 cal.schedule(now + service.sample_duration(&mut svc_rng), Ev::Departure);
//!             }
//!         }
//!     }
//! }
//! assert_eq!(served, 1000);
//! ```
//!
//! Determinism is a hard guarantee: two runs with the same seed and the same
//! sequence of calendar operations observe identical event orders and
//! identical random draws.

pub mod calendar;
pub mod detmap;
pub mod dist;
pub mod rng;
pub mod series;
pub mod snap;
pub mod stats;
pub mod time;

pub use calendar::{Calendar, EventToken};
pub use detmap::{DetHashMap, DetHashSet, DetState};
pub use rng::{Rng, RngFactory};
pub use snap::{Snap, SnapError, SnapReader, SnapWriter};
pub use time::{SimDuration, SimTime};
