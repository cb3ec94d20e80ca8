//! The line protocol: a network-free request/response framing over any
//! `BufRead`/`Write` pair (`ep2 serve` wires it to stdin/stdout).
//!
//! Requests, one per line:
//!
//! ```text
//! predict <id> <v1,v2,...,vd>   ask for f(x) on one feature row
//! ping                          liveness probe
//! stats                         counters, latency percentiles, and the
//!                               admission fit next to measured batches
//! shutdown                      drain the queue and exit
//! ```
//!
//! Responses (interleaved; match them to requests by `<id>`):
//!
//! ```text
//! ok <id> <y1,...,yl>           prediction
//! busy <id> <est_wait_us> <budget_us>   shed by admission control
//! err <id> <message>            malformed request
//! pong / stats ... / bye
//! ```
//!
//! The `stats` reply is one line: `stats served= shed= batches=
//! recoveries= p50_us= p99_us=`, then the admission fit `a_us= b_us=`, its
//! predictions for a one-row and a cap-row batch `est_one_us= est_cap_us=`,
//! and the measured means `batch_us= batch_rows=` over executed batches.
//!
//! Floats are rendered with Rust's shortest round-trippable formatting, so
//! `ok` payloads parse back to bit-identical values at the serving
//! precision — the protocol does not erode the engine's bit-for-bit parity
//! with offline prediction.

use std::io::{BufRead, Write};

use ep2_linalg::Scalar;
use parking_lot::Mutex;

use crate::engine::ServeEngine;

/// Formats one output row as `v1,v2,...` with round-trippable floats.
fn format_row<S: Scalar>(out: &mut String, row: &[S]) {
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // `{}` on f64 prints the shortest digits that re-parse exactly;
        // S -> f64 widening is lossless at every serving precision.
        out.push_str(&format!("{}", v.to_f64()));
    }
}

/// Parses a `v1,v2,...` feature payload at the serving precision.
fn parse_features<S: Scalar>(payload: &str, dim: usize, buf: &mut Vec<S>) -> Result<(), String> {
    buf.clear();
    for tok in payload.split(',') {
        let v: f64 = tok
            .trim()
            .parse()
            .map_err(|_| format!("bad float {tok:?}"))?;
        buf.push(S::from_f64(v));
    }
    if buf.len() != dim {
        return Err(format!("expected {dim} features, got {}", buf.len()));
    }
    Ok(())
}

/// Serves the line protocol until `shutdown` or end-of-input, then drains
/// the queue and joins the workers. Returns the number of protocol lines
/// handled.
///
/// Worker replies and driver-side responses (`busy`, `err`, `pong`, ...)
/// share one locked writer; every response is a single line, so
/// interleaving is per-response and clients demultiplex by id.
pub fn serve_lines<S: Scalar>(
    engine: &ServeEngine<S>,
    reader: impl BufRead,
    writer: impl Write + Send,
) -> std::io::Result<u64> {
    let out = Mutex::new(writer);
    let sink = |id: &str, row: &[S]| {
        let mut line = String::with_capacity(32);
        format_row(&mut line, row);
        let mut w = out.lock();
        // A broken client pipe must not kill the worker; drop the reply.
        let _ = writeln!(w, "ok {id} {line}");
        let _ = w.flush();
    };
    let dim = engine.model().dim();
    let mut handled = 0_u64;
    let result = engine.run(&sink, || -> std::io::Result<u64> {
        let mut features: Vec<S> = Vec::with_capacity(dim);
        for line in reader.lines() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            handled += 1;
            let mut parts = line.splitn(3, ' ');
            let verb = parts.next().unwrap_or("");
            match verb {
                "predict" => {
                    let id = parts.next().unwrap_or("");
                    let payload = parts.next().unwrap_or("");
                    if id.is_empty() || payload.is_empty() {
                        let mut w = out.lock();
                        writeln!(w, "err - usage: predict <id> <v1,v2,...>")?;
                        w.flush()?;
                        continue;
                    }
                    match parse_features::<S>(payload, dim, &mut features) {
                        Ok(()) => {
                            if let Err(shed) = engine.submit(id, &features) {
                                let mut w = out.lock();
                                writeln!(w, "busy {id} {} {}", shed.est_wait_us, shed.budget_us)?;
                                w.flush()?;
                            }
                        }
                        Err(msg) => {
                            let mut w = out.lock();
                            writeln!(w, "err {id} {msg}")?;
                            w.flush()?;
                        }
                    }
                }
                "ping" => {
                    let mut w = out.lock();
                    writeln!(w, "pong")?;
                    w.flush()?;
                }
                "stats" => {
                    let st = engine.stats();
                    let cap = engine.plan().batch_rows;
                    let mut w = out.lock();
                    writeln!(
                        w,
                        "stats served={} shed={} batches={} recoveries={} p50_us={} p99_us={} \
                         a_us={:.1} b_us={:.2} est_one_us={:.0} est_cap_us={:.0} \
                         batch_us={:.0} batch_rows={:.2}",
                        st.served,
                        st.shed,
                        st.batches,
                        st.recoveries,
                        st.percentile_us(50.0),
                        st.percentile_us(99.0),
                        st.a_us,
                        st.b_us,
                        st.est_batch_us(1),
                        st.est_batch_us(cap),
                        st.batch_us,
                        st.batch_rows,
                    )?;
                    w.flush()?;
                }
                "shutdown" => break,
                other => {
                    let mut w = out.lock();
                    writeln!(w, "err - unknown command {other:?}")?;
                    w.flush()?;
                }
            }
        }
        Ok(handled)
    })?;
    let mut w = out.lock();
    let _ = writeln!(w, "bye");
    let _ = w.flush();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_parsing_rejects_bad_payloads() {
        let mut buf: Vec<f64> = Vec::new();
        assert!(parse_features::<f64>("1.0,2.0", 2, &mut buf).is_ok());
        assert_eq!(buf, vec![1.0, 2.0]);
        assert!(parse_features::<f64>("1.0", 2, &mut buf).is_err());
        assert!(parse_features::<f64>("1.0,abc", 2, &mut buf).is_err());
    }

    #[test]
    fn formatting_round_trips_exactly() {
        let vals = [0.1_f64, 1.0 / 3.0, -2.5e-9, f64::MIN_POSITIVE];
        let mut line = String::new();
        format_row(&mut line, &vals);
        let parsed: Vec<f64> = line.split(',').map(|t| t.parse().unwrap()).collect();
        assert_eq!(parsed, vals);
    }
}
