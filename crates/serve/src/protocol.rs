//! The request/reply protocol: newline-delimited JSON.
//!
//! Each request is one JSON object per line, with a `"cmd"` field and
//! optional parameters:
//!
//! ```json
//! {"cmd": "ingest", "steps": 288, "id": 1}
//! {"cmd": "figure", "figure": "fig2", "id": 2}
//! {"cmd": "metrics", "wall": true}
//! ```
//!
//! Every reply is one JSON object per line echoing the request's `"id"`
//! (or `null` when absent):
//!
//! ```json
//! {"ok":true,"id":1,"ingested":288,...}
//! {"ok":false,"id":2,"error":{"kind":"usage","exit_code":2,"message":"..."}}
//! ```
//!
//! Error replies reuse the `mira-ops` exit-code taxonomy via
//! [`mira_core::Error::exit_code`] / [`mira_core::Error::kind`] — a
//! scripted client branches on the same codes a batch invocation would
//! exit with; protocol-level problems (bad JSON, unknown command,
//! missing field) use the CLI's usage code `2` under kind `"usage"`.

use crate::json::Json;

/// A decoded protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `{"cmd":"status"}` — ingest cursor and span.
    Status,
    /// `{"cmd":"metrics"[,"wall":true]}` — the observability report;
    /// `wall` adds the nondeterministic latency section.
    Metrics {
        /// Include wall-clock latency (excluded from determinism gates).
        wall: bool,
    },
    /// `{"cmd":"figure","figure":"fig2"}` — one paper figure over the
    /// ingested span.
    Figure {
        /// Figure identifier (`fig2`, `fig3`, `fig4`, `fig5`, `fig6`,
        /// `fig8`, `fig10`, `free_cooling`).
        figure: String,
    },
    /// `{"cmd":"report"}` — the headline numbers of the figure report.
    Report,
    /// `{"cmd":"predict"[,"lead_hours":3,"events":150,"epochs":30]}` —
    /// train (or reuse) the CMF predictor, evaluate at a lead time.
    Predict {
        /// Lead time to evaluate, in hours.
        lead_hours: i64,
        /// Failures to train on.
        events: usize,
        /// Training epochs.
        epochs: usize,
    },
    /// `{"cmd":"ingest","steps":N}` — advance the incremental sweep by
    /// `N` grid instants.
    Ingest {
        /// Grid instants to append.
        steps: usize,
    },
    /// `{"cmd":"replay"[,"from":EPOCH,"to":EPOCH,"limit":N]}` — stream
    /// archived telemetry rows from the attached columnar store instead
    /// of re-simulating. `from`/`to` are epoch seconds bounding the
    /// half-open span `[from, to)`; omitted bounds mean the full
    /// archive. At most `limit` rows (default 100) are returned; scan
    /// statistics always report the true span.
    Replay {
        /// Inclusive lower bound, epoch seconds (`None` = archive start).
        from: Option<u64>,
        /// Exclusive upper bound, epoch seconds (`None` = archive end).
        to: Option<u64>,
        /// Maximum rows in the reply.
        limit: usize,
    },
    /// `{"cmd":"shutdown"}` — stop accepting work after replying.
    Shutdown,
}

impl Request {
    /// The stable per-command metrics key, `"serve.queries.<cmd>"`.
    #[must_use]
    pub fn metrics_key(&self) -> &'static str {
        match self {
            Request::Status => "serve.queries.status",
            Request::Metrics { .. } => "serve.queries.metrics",
            Request::Figure { .. } => "serve.queries.figure",
            Request::Report => "serve.queries.report",
            Request::Predict { .. } => "serve.queries.predict",
            Request::Ingest { .. } => "serve.queries.ingest",
            Request::Replay { .. } => "serve.queries.replay",
            Request::Shutdown => "serve.queries.shutdown",
        }
    }
}

/// A request that could not be decoded; carries the echoed id.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// The request's `"id"` (or `Json::Null`), echoed in the reply.
    pub id: Json,
    /// Human-readable description of the problem.
    pub message: String,
}

fn bad(id: &Json, message: impl Into<String>) -> RequestError {
    RequestError {
        id: id.clone(),
        message: message.into(),
    }
}

/// Decodes one request line into a [`Request`] and its echo id.
///
/// # Errors
///
/// [`RequestError`] (usage, exit code 2) on malformed JSON, a missing
/// or unknown `"cmd"`, or malformed parameters.
pub fn parse_request(line: &str) -> Result<(Request, Json), RequestError> {
    let doc = match Json::parse(line) {
        Ok(doc) => doc,
        Err(e) => {
            return Err(bad(&Json::Null, format!("{e}")));
        }
    };
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    let Some(cmd) = doc.get("cmd").and_then(Json::as_str) else {
        return Err(bad(&id, "request must carry a string \"cmd\" field"));
    };
    let request = match cmd {
        "status" => Request::Status,
        "report" => Request::Report,
        "shutdown" => Request::Shutdown,
        "metrics" => Request::Metrics {
            wall: doc.get("wall").and_then(Json::as_bool).unwrap_or(false),
        },
        "figure" => {
            let Some(figure) = doc.get("figure").and_then(Json::as_str) else {
                return Err(bad(&id, "figure requires a string \"figure\" field"));
            };
            Request::Figure {
                figure: figure.to_string(),
            }
        }
        "predict" => Request::Predict {
            lead_hours: field_u64(&doc, &id, "lead_hours", 3)?
                .min(24 * 365)
                .cast_signed(),
            events: usize_field(&doc, &id, "events", 150)?,
            epochs: usize_field(&doc, &id, "epochs", 30)?,
        },
        "ingest" => Request::Ingest {
            steps: usize_field_required(&doc, &id, "steps")?,
        },
        "replay" => Request::Replay {
            from: optional_u64(&doc, &id, "from")?,
            to: optional_u64(&doc, &id, "to")?,
            limit: usize_field(&doc, &id, "limit", 100)?,
        },
        other => {
            return Err(bad(
                &id,
                format!(
                    "unknown cmd {other:?}; expected status, metrics, figure, \
                     report, predict, ingest, replay, or shutdown"
                ),
            ));
        }
    };
    Ok((request, id))
}

fn optional_u64(doc: &Json, id: &Json, key: &str) -> Result<Option<u64>, RequestError> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(id, format!("\"{key}\" must be a non-negative integer"))),
    }
}

fn field_u64(doc: &Json, id: &Json, key: &str, default: u64) -> Result<u64, RequestError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad(id, format!("\"{key}\" must be a non-negative integer"))),
    }
}

fn usize_field(doc: &Json, id: &Json, key: &str, default: usize) -> Result<usize, RequestError> {
    field_u64(doc, id, key, mira_units::convert::u64_from_usize(default))
        .map(mira_units::convert::usize_from_u64)
}

fn usize_field_required(doc: &Json, id: &Json, key: &str) -> Result<usize, RequestError> {
    match doc.get(key) {
        None => Err(bad(id, format!("\"{key}\" is required"))),
        Some(v) => v
            .as_u64()
            .map(mira_units::convert::usize_from_u64)
            .ok_or_else(|| bad(id, format!("\"{key}\" must be a non-negative integer"))),
    }
}

/// A success reply: `{"ok":true,"id":<id>,<fields...>}`.
#[must_use]
pub fn ok_reply(id: &Json, fields: Vec<(&str, Json)>) -> String {
    let mut all = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("id".to_string(), id.clone()),
    ];
    all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(all).to_string()
}

fn error_reply(id: &Json, kind: &str, exit_code: u8, message: &str) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("id", id.clone()),
        (
            "error",
            Json::obj(vec![
                ("kind", Json::from(kind)),
                ("exit_code", Json::from(u64::from(exit_code))),
                ("message", Json::from(message)),
            ]),
        ),
    ])
    .to_string()
}

/// An error reply for a core failure, carrying the batch CLI's exit
/// code and kind label for that cause.
#[must_use]
pub fn core_error_reply(id: &Json, e: &mira_core::Error) -> String {
    error_reply(id, e.kind(), e.exit_code(), &e.to_string())
}

/// An error reply for a protocol/usage problem (exit code 2, like a bad
/// CLI flag).
#[must_use]
pub fn usage_error_reply(id: &Json, message: &str) -> String {
    error_reply(id, "usage", 2, message)
}

/// An error reply for a request refused by a size limit before it was
/// parsed, so its `id` is unknown (exit code 2, like a usage error).
#[must_use]
pub fn limit_error_reply(message: &str) -> String {
    error_reply(&Json::Null, "limit", 2, message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        let cases: Vec<(&str, Request)> = vec![
            ("{\"cmd\":\"status\"}", Request::Status),
            ("{\"cmd\":\"report\"}", Request::Report),
            ("{\"cmd\":\"shutdown\"}", Request::Shutdown),
            ("{\"cmd\":\"metrics\"}", Request::Metrics { wall: false }),
            (
                "{\"cmd\":\"metrics\",\"wall\":true}",
                Request::Metrics { wall: true },
            ),
            (
                "{\"cmd\":\"figure\",\"figure\":\"fig2\"}",
                Request::Figure {
                    figure: "fig2".to_string(),
                },
            ),
            (
                "{\"cmd\":\"predict\",\"lead_hours\":6,\"events\":20,\"epochs\":2}",
                Request::Predict {
                    lead_hours: 6,
                    events: 20,
                    epochs: 2,
                },
            ),
            (
                "{\"cmd\":\"ingest\",\"steps\":12}",
                Request::Ingest { steps: 12 },
            ),
            (
                "{\"cmd\":\"replay\"}",
                Request::Replay {
                    from: None,
                    to: None,
                    limit: 100,
                },
            ),
            (
                "{\"cmd\":\"replay\",\"from\":1425168000,\"to\":1425254400,\"limit\":5}",
                Request::Replay {
                    from: Some(1_425_168_000),
                    to: Some(1_425_254_400),
                    limit: 5,
                },
            ),
        ];
        for (line, expected) in cases {
            let (req, id) = parse_request(line).expect(line);
            assert_eq!(req, expected, "{line}");
            assert_eq!(id, Json::Null);
        }
    }

    #[test]
    fn predict_defaults_mirror_the_cli() {
        let (req, _) = parse_request("{\"cmd\":\"predict\"}").unwrap();
        assert_eq!(
            req,
            Request::Predict {
                lead_hours: 3,
                events: 150,
                epochs: 30
            }
        );
    }

    #[test]
    fn id_is_echoed_on_success_and_error() {
        let (_, id) = parse_request("{\"cmd\":\"status\",\"id\":7}").unwrap();
        assert_eq!(id, Json::Num(7.0));
        let e = parse_request("{\"cmd\":\"nope\",\"id\":\"q1\"}").unwrap_err();
        assert_eq!(e.id, Json::Str("q1".to_string()));
        assert!(e.message.contains("unknown cmd"));
    }

    #[test]
    fn malformed_requests_are_usage_errors() {
        for line in [
            "not json",
            "{\"cmd\":42}",
            "{}",
            "{\"cmd\":\"ingest\"}",
            "{\"cmd\":\"ingest\",\"steps\":-1}",
            "{\"cmd\":\"ingest\",\"steps\":2.5}",
            "{\"cmd\":\"figure\"}",
            "{\"cmd\":\"replay\",\"from\":-4}",
            "{\"cmd\":\"replay\",\"limit\":\"many\"}",
        ] {
            let e = parse_request(line).unwrap_err();
            let reply = usage_error_reply(&e.id, &e.message);
            assert!(reply.contains("\"exit_code\":2"), "{line} -> {reply}");
            assert!(reply.contains("\"kind\":\"usage\""), "{line} -> {reply}");
        }
    }

    #[test]
    fn core_errors_carry_the_cli_taxonomy() {
        let e = mira_core::Error::from(mira_core::SweepError::EmptySpan);
        let reply = core_error_reply(&Json::Num(3.0), &e);
        assert!(reply.starts_with("{\"ok\":false,\"id\":3,"));
        assert!(reply.contains("\"kind\":\"sweep\""));
        assert!(reply.contains("\"exit_code\":3"));
    }

    #[test]
    fn ok_reply_leads_with_ok_and_id() {
        let reply = ok_reply(&Json::Num(1.0), vec![("steps", Json::from(4u64))]);
        assert_eq!(reply, "{\"ok\":true,\"id\":1,\"steps\":4}");
    }
}
