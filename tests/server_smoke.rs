//! Cross-layer smoke: a job submitted over TCP to an in-process daemon
//! returns exactly what the engine's runner returns when called directly.

use facade_job::{
    Dataset, ExecContext, GraphChiRunner, HyracksRunner, JobRunner, JobSpec, Workload,
};
use facade_server::{DatasetConfig, FacadeServer, ServerConfig};
use metrics::json::{self, Json};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request, `Connection: close`; returns the status and the body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: smoke\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write the request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read the response");
    let status = raw.split_whitespace().nth(1).and_then(|s| s.parse().ok());
    let (_, body) = raw.split_once("\r\n\r\n").unwrap_or_default();
    (status.expect("a status line"), body.to_string())
}

/// Submits `spec`, polls it to a terminal status and returns the
/// fingerprint its result reports.
fn served_fingerprint(addr: SocketAddr, spec: &JobSpec) -> String {
    let (status, body) = http(addr, "POST", "/jobs", &spec.to_json());
    assert_eq!(status, 202, "{body}");
    let id = json::parse(&body)
        .unwrap()
        .get("job")
        .and_then(Json::as_u64);
    let path = format!("/jobs/{}", id.expect("the submission returns a job id"));
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(addr, "GET", &path, "");
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).unwrap();
        match doc.get("status").and_then(Json::as_str) {
            Some("completed") => {
                let output = doc.get("result").and_then(|r| r.get("output"));
                let fingerprint = output.and_then(|o| o.get("fingerprint"));
                return fingerprint.and_then(Json::as_str).unwrap().to_string();
            }
            Some("queued" | "running") if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            _ => panic!("{path} did not complete: {body}"),
        }
    }
}

#[test]
fn served_jobs_match_direct_runner_runs() {
    let dataset = DatasetConfig {
        vertices: 300,
        edges: 1_200,
        corpus_bytes: 20_000,
        seed: 11,
    };
    let server = FacadeServer::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        acceptors: 1,
        executors: 1,
        dataset: dataset.clone(),
        warm_boot: false,
        ..ServerConfig::default()
    })
    .expect("boot the daemon");
    let addr = server.local_addr();

    let data = Dataset::synthetic(
        dataset.vertices,
        dataset.edges,
        dataset.corpus_bytes,
        dataset.seed,
    );
    let spec = |workload| JobSpec {
        workload,
        budget_bytes: 4 << 20,
        threads: 1,
        ..JobSpec::default()
    };
    let runners: [(JobSpec, &dyn JobRunner); 2] = [
        (spec(Workload::PageRank { iterations: 3 }), &GraphChiRunner),
        (spec(Workload::WordCount), &HyracksRunner),
    ];
    for (spec, runner) in runners {
        let direct = runner.execute(&spec, &data, &ExecContext::default());
        let direct = format!("{:016x}", direct.unwrap().output.fingerprint());
        assert_eq!(served_fingerprint(addr, &spec), direct, "{}", spec.workload);
    }

    let report = server.shutdown();
    assert!(report.clean(), "{report}");
}
