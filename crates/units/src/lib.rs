//! Typed physical quantities for liquid-cooled data-center telemetry.
//!
//! The Mira coolant monitor reports temperatures in degrees Fahrenheit,
//! coolant flow in gallons per minute, power in kilowatts/megawatts, and
//! ambient humidity in percent relative humidity. Mixing those up in raw
//! `f64`s is exactly the kind of bug a facility dashboard cannot afford, so
//! every channel gets its own newtype with explicit conversions
//! ([`Fahrenheit::to_celsius`], [`Megawatts::to_kilowatts`], …) and the
//! psychrometric helpers the paper's failure analysis relies on
//! ([`dew_point`], [`condensation_margin`]).
//!
//! # Example
//!
//! ```
//! use mira_units::{Fahrenheit, RelHumidity, dew_point};
//!
//! let dc_temp = Fahrenheit::new(80.0);
//! let dc_rh = RelHumidity::new(35.0);
//! let dp = dew_point(dc_temp, dc_rh);
//! assert!(dp < dc_temp, "dew point is below ambient at RH < 100%");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod energy;
pub mod flow;
pub mod humidity;
pub mod power;
pub mod temperature;

pub use energy::KilowattHours;
pub use flow::Gpm;
pub use humidity::{condensation_margin, dew_point, RelHumidity};
pub use power::{Kilowatts, Megawatts, Watts};
pub use temperature::{Celsius, Fahrenheit};
