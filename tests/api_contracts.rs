//! API-guideline contracts: thread-safety markers, error-trait
//! conformance, and non-empty Debug/Display representations for the
//! public surface (C-SEND-SYNC, C-GOOD-ERR, C-DEBUG-NONEMPTY).

use mira_core::{SimConfig, Simulation};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn core_types_are_send_and_sync() {
    assert_send_sync::<Simulation>();
    assert_send_sync::<mira_core::TelemetryEngine>();
    assert_send_sync::<mira_core::SweepSummary>();
    assert_send_sync::<mira_core::CoolantMonitorSample>();
    assert_send_sync::<mira_core::RasLog>();
    assert_send_sync::<mira_core::CmfSchedule>();
    assert_send_sync::<mira_core::CmfPredictor>();
    assert_send_sync::<mira_core::DatasetBuilder>();
    assert_send_sync::<mira_facility::Machine>();
    assert_send_sync::<mira_nn::Mlp>();
    assert_send_sync::<mira_nn::Dataset>();
    assert_send_sync::<mira_weather::ChicagoClimate>();
    assert_send_sync::<mira_workload::WorkloadModel>();
    assert_send_sync::<mira_workload::BackfillScheduler>();
    assert_send_sync::<mira_core::ObsReport>();
    assert_send_sync::<mira_obs::MetricsPartial>();
}

#[test]
fn errors_implement_std_error_and_are_sendable() {
    fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
    assert_error::<mira_facility::ParseRackIdError>();
    assert_error::<mira_core::SweepError>();
    assert_error::<mira_core::StoreError>();
    assert_error::<mira_core::Error>();
    assert_error::<mira_ops_cli::CliError>();
}

#[test]
fn unified_error_preserves_the_cause_chain() {
    use std::error::Error as _;

    let err = mira_core::Error::from(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        "missing.csv",
    ));
    // Error -> StoreError -> io::Error, walkable via source().
    let store = err.source().expect("store cause");
    let io = store.source().expect("io cause");
    assert!(io.to_string().contains("missing.csv"));

    let sweep = mira_core::Error::from(mira_core::SweepError::EmptySpan);
    assert!(matches!(sweep, mira_core::Error::Sweep(_)));
    assert!(sweep.source().is_some());
}

#[test]
fn error_messages_are_lowercase_and_concise() {
    let parse = mira_facility::RackId::parse("bogus").unwrap_err();
    let msg = parse.to_string();
    assert!(msg.starts_with(char::is_lowercase), "{msg}");
    assert!(!msg.ends_with('.'), "{msg}");
}

#[test]
fn telemetry_can_be_shared_across_threads() {
    use std::sync::Arc;

    let sim = Arc::new(Simulation::new(SimConfig::with_seed(7)));
    let t = mira_core::SimTime::from_date(mira_core::Date::new(2017, 2, 2));

    let handles: Vec<_> = (0..4)
        .map(|k| {
            let sim = Arc::clone(&sim);
            std::thread::spawn(move || {
                let rack = mira_core::RackId::from_index(k * 11 % 48);
                mira_core::TelemetryProvider::sample(sim.telemetry(), rack, t)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Deterministic across threads too.
    for (k, s) in results.iter().enumerate() {
        let rack = mira_core::RackId::from_index(k * 11 % 48);
        assert_eq!(
            *s,
            mira_core::TelemetryProvider::sample(sim.telemetry(), rack, t)
        );
    }
}

#[test]
fn debug_representations_are_never_empty() {
    let sim = Simulation::new(SimConfig::with_seed(7));
    assert!(!format!("{:?}", sim.config()).is_empty());
    assert!(!format!("{:?}", mira_core::RackId::new(0, 0)).is_empty());
    assert!(!format!("{:?}", mira_nn::BinaryMetrics::new()).is_empty());
    assert!(!format!("{:?}", mira_timeseries::Welford::new()).is_empty());
}

#[test]
fn display_types_render_with_units() {
    use mira_units::{Fahrenheit, Gpm, KilowattHours, Kilowatts, Megawatts, RelHumidity};

    for (text, needle) in [
        (Fahrenheit::new(64.0).to_string(), "F"),
        (Gpm::new(26.0).to_string(), "GPM"),
        (Kilowatts::new(58.0).to_string(), "kW"),
        (Megawatts::new(2.5).to_string(), "MW"),
        (RelHumidity::new(33.0).to_string(), "%RH"),
        (KilowattHours::new(17_820.0).to_string(), "kWh"),
    ] {
        assert!(text.contains(needle), "{text} missing {needle}");
    }
}
