//! Runs every workload in its seconds-long smoke mode, untraced and traced,
//! and asserts that the last stdout line names every metric `BENCHMARK.json`
//! lists for that mode, each with its unit and a finite value.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A JSON value, as much of it as the benchmark's files use.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.b.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.b[self.i] != b'"' {
                    assert_ne!(self.b[self.i], b'\\', "escapes are not used");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.b[start..self.i - 1].to_vec()).unwrap())
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.b.len() && b"+-0123456789.eE".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing characters");
    v
}

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn run(workload: &str, trace: bool) -> Json {
    // The binary writes its scratch files under its working directory.
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&scratch).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ep2-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .env("EP2_THREADS", "2")
        .current_dir(&scratch)
        .output()
        .expect("benchmark binary runs");
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    parse(stdout.lines().last().expect("a result line"))
}

fn check(workload: &str, trace: bool) {
    let spec = spec();
    let result = run(workload, trace);
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}: {result:?}"
    );
    let Json::Num(attempted) = result.get("attempted") else {
        panic!("attempted")
    };
    assert!(*attempted >= 1.0);
    assert_eq!(result.get("failed"), &Json::Num(0.0));
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics")
    };
    let Json::Arr(wanted) = spec.get(if trace { "per_layer" } else { "end_to_end" }) else {
        panic!("metric list")
    };
    assert_eq!(metrics.len(), wanted.len(), "{workload}: metric count");
    for m in wanted {
        let name = m.get("name").str();
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(
            got.get("unit").str(),
            m.get("unit").str(),
            "{workload}: unit of {name}"
        );
        let Json::Num(v) = got.get("value") else {
            panic!("{name}: value")
        };
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
}

#[test]
fn workloads_in_benchmark_json_match_the_binary() {
    let Json::Arr(w) = spec().get("workloads").clone() else {
        panic!("workloads")
    };
    let names: Vec<&str> = w.iter().map(|x| x.get("name").str()).collect();
    assert_eq!(names, ["fit-incore", "fit-streamed", "serve-open"]);
}

#[test]
fn fit_incore_prints_every_metric() {
    check("fit-incore", false);
    check("fit-incore", true);
}

#[test]
fn fit_streamed_prints_every_metric() {
    check("fit-streamed", false);
    check("fit-streamed", true);
}

#[test]
fn serve_open_prints_every_metric() {
    check("serve-open", false);
    check("serve-open", true);
}
