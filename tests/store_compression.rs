//! The columnar store's compression floor: two days of simulated
//! telemetry at the paper's 5-minute cadence, packed with the counted
//! RAS log, take at most a third of the bytes of the equivalent CSV.
//!
//! Byte identity and sub-span pruning are covered by
//! `crates/store/tests/archive_round_trip.rs` and by the store
//! round-trip step of `ci.sh`.

use mira_core::{archive, Archive, Duration, SimConfig, Simulation, TelemetryRecord};
use mira_store::ColumnarArchive;

/// The smallest columnar-over-CSV size ratio the store may ship with.
const COMPRESSION_FLOOR: f64 = 3.0;

#[test]
fn two_day_export_packs_at_least_three_times_smaller_than_csv() {
    let sim = Simulation::new(SimConfig::with_seed(2014));
    let from = sim.config().span().0;
    let to = from + Duration::from_days(2);

    let mut rows: Vec<TelemetryRecord> = Vec::new();
    let n = archive::sweep_records(
        sim.telemetry(),
        from,
        to,
        Duration::from_minutes(5),
        |rec| -> Result<(), ()> {
            rows.push(*rec);
            Ok(())
        },
    )
    .expect("sweep into memory");
    assert_eq!(n, 2 * 288 * 48);

    let dir = std::env::temp_dir().join(format!("mira-store-ratio-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut store = ColumnarArchive::create(&dir.join("tele.mstore")).expect("create store");
    store.append_telemetry(&rows).expect("append telemetry");
    store
        .append_ras(sim.ras_log().counted())
        .expect("append ras");
    store.flush().expect("flush");
    let stat = store.stat().expect("stat");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let ratio = stat.compression_ratio();
    eprintln!(
        "{} rows in {} groups: {} bytes vs {} CSV bytes, {ratio:.2}x",
        stat.rows, stat.groups, stat.file_bytes, stat.csv_bytes
    );
    assert!(
        ratio >= COMPRESSION_FLOOR,
        "compression ratio {ratio:.2} fell below the {COMPRESSION_FLOOR}x floor"
    );
}
