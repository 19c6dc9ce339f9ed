//! # sharon-streams
//!
//! Synthetic stream and query-workload generators reproducing the shape of
//! the paper's three data sets (Section 8.1):
//!
//! * [`taxi`] — **TX**: position reports of vehicles driving routes over a
//!   street grid (stand-in for the NYC Taxi/Uber data set; see DESIGN.md
//!   for the substitution argument);
//! * [`linear_road`] — **LR**: Linear Road-style car position reports with
//!   a gradually increasing event rate;
//! * [`ecommerce`] — **EC**: item purchases by customers (50 items, 20
//!   customers, 3k events/s — exactly the paper's generator spec);
//! * [`workload`] — query workload generators with controlled pattern
//!   overlap, used to scale the number of queries and pattern length in
//!   the Figure 14–16 experiments.
//!
//! All generators are seeded and deterministic, and all three stream
//! generators expose a Zipfian `skew` knob ([`Zipf`]) on their group
//! dimension (vehicle / car / customer) so skewed `GROUP BY`
//! distributions — where one hot group loads its shard more than the
//! rest — are reachable everywhere the streams are. A `disorder` knob
//! ([`scramble_batch`]) applies a seeded *bounded* shuffle to any generated
//! stream, simulating late arrivals while keeping the displacement bound
//! the event-time exactness guarantee is stated against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disorder;
pub mod ecommerce;
pub mod linear_road;
pub mod taxi;
pub mod workload;
mod zipf;

pub use disorder::{required_lateness, scramble_batch, scramble_events};
pub use ecommerce::EcommerceConfig;
pub use linear_road::LinearRoadConfig;
pub use taxi::TaxiConfig;
pub use workload::{measured_rates, WorkloadConfig};
pub use zipf::Zipf;
