//! Wire-level integration tests for `bandwall serve`: real TCP sockets
//! against an in-process [`Server`], covering the failure modes the
//! service promises to survive — malformed requests, oversized bodies,
//! slow clients, mid-request disconnects, queue saturation, deadline
//! overruns, and graceful drain.

use bandwall_experiments::fault::ChaosSpec;
use bandwall_experiments::serve::loadgen::Client;
use bandwall_experiments::serve::{ServeConfig, Server, StatsSnapshot};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A config bound to an ephemeral port with CI-friendly timeouts.
fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 8,
        deadline: Duration::from_secs(2),
        read_timeout: Duration::from_millis(400),
        cache_capacity: 1024,
        chaos: None,
    }
}

fn start(config: ServeConfig) -> (Server, SocketAddr) {
    let server = Server::start(config).expect("server starts");
    let addr = server.addr();
    (server, addr)
}

fn stop(server: Server) -> StatsSnapshot {
    server.shutdown_handle().shutdown();
    server.join()
}

/// Sends raw bytes and returns everything the server replies before
/// closing (or `None` if the server just hangs up).
fn raw_roundtrip(addr: &SocketAddr, bytes: &[u8]) -> Option<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(bytes).expect("send");
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    if reply.is_empty() {
        None
    } else {
        Some(String::from_utf8(reply).expect("UTF-8 reply"))
    }
}

#[test]
fn health_and_readiness_probes_answer() {
    let (server, addr) = start(test_config());
    let mut client = Client::connect(&addr).unwrap();
    let health = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "{\"status\":\"ok\"}");
    let ready = client.request("GET", "/readyz", None).unwrap();
    assert_eq!(ready.status, 200);
    drop(client);
    stop(server);
}

#[test]
fn malformed_json_gets_invalid_request() {
    let (server, addr) = start(test_config());
    let mut client = Client::connect(&addr).unwrap();
    for body in ["{", "[]", "{\"total_ceas\":\"many\"}", "{\"bogus\":1}"] {
        let response = client.request("POST", "/solve", Some(body)).unwrap();
        assert_eq!(response.status, 400, "body {body:?}: {}", response.body);
        assert!(
            response.body.contains("\"kind\":\"invalid_request\""),
            "body {body:?}: {}",
            response.body
        );
    }
    // The connection survives invalid requests (keep-alive).
    let ok = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(ok.status, 200);
    drop(client);
    stop(server);
}

#[test]
fn malformed_head_gets_invalid_request() {
    let (server, addr) = start(test_config());
    let reply = raw_roundtrip(&addr, b"NOT-HTTP nonsense\r\n\r\n").expect("a reply");
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(reply.contains("\"kind\":\"invalid_request\""), "{reply}");
    stop(server);
}

#[test]
fn oversized_body_is_rejected_not_read() {
    let (server, addr) = start(test_config());
    // Declare 10 MiB; the server must refuse from the header alone.
    let head = "POST /solve HTTP/1.1\r\ncontent-length: 10485760\r\n\r\n";
    let reply = raw_roundtrip(&addr, head.as_bytes()).expect("a reply");
    assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
    assert!(reply.contains("\"kind\":\"invalid_request\""), "{reply}");
    stop(server);
}

#[test]
fn oversized_head_is_rejected() {
    let (server, addr) = start(test_config());
    let mut request = b"GET /healthz HTTP/1.1\r\nx-padding: ".to_vec();
    request.extend(std::iter::repeat_n(b'a', 16 * 1024));
    request.extend(b"\r\n\r\n");
    let reply = raw_roundtrip(&addr, &request).expect("a reply");
    assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
    stop(server);
}

#[test]
fn slow_loris_is_timed_out() {
    let (server, addr) = start(test_config());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Send half a request head, then stall past the read timeout.
    stream.write_all(b"GET /healthz HT").expect("send");
    let started = Instant::now();
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    let reply = String::from_utf8(reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 408"), "{reply}");
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "timeout should fire near the 400ms read window, took {:?}",
        started.elapsed()
    );
    stop(server);
}

#[test]
fn mid_request_disconnect_is_survived() {
    let (server, addr) = start(test_config());
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /solve HTTP/1.1\r\ncontent-length: 500\r\n\r\n{\"tot")
            .expect("send");
        // Drop mid-body: the worker sees EOF and must move on.
    }
    // The server still serves the next client promptly.
    let mut client = Client::connect(&addr).unwrap();
    let ok = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(ok.status, 200);
    drop(client);
    stop(server);
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let (server, addr) = start(ServeConfig {
        workers: 4,
        queue_capacity: 64,
        ..test_config()
    });
    let threads: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                for j in 0..25 {
                    let body = format!("{{\"total_ceas\":{}}}", 32 + (i * 25 + j) % 7);
                    let response = client.request("POST", "/solve", Some(&body)).unwrap();
                    assert_eq!(response.status, 200, "{}", response.body);
                    assert!(response.body.contains("\"supportable_cores\""));
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().expect("client thread");
    }
    let stats = stop(server);
    assert_eq!(stats.served_ok, 200);
    assert_eq!(stats.internal, 0);
    assert_eq!(stats.worker_respawns, 0, "no chaos, no respawns");
}

#[test]
fn idle_keep_alive_connections_give_up_their_workers() {
    // Both workers hold a kept-alive connection that has gone quiet; the
    // 5 s keep-alive window must not make a new client wait it out.
    let (server, addr) = start(ServeConfig {
        workers: 2,
        read_timeout: Duration::from_secs(5),
        ..test_config()
    });
    let mut idle: Vec<Client> = (0..2)
        .map(|_| {
            let mut client = Client::connect(&addr).unwrap();
            assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
            client
        })
        .collect();
    let started = Instant::now();
    let fresh = Client::connect(&addr)
        .unwrap()
        .request_once("POST", "/v1/solve", Some("{\"total_ceas\":32}"))
        .unwrap();
    let waited = started.elapsed();
    assert_eq!(fresh.status, 200, "{}", fresh.body);
    assert!(
        waited < Duration::from_millis(250),
        "a new client waited {waited:?} behind idle keep-alive connections"
    );
    // An idle client gave its worker up without losing its connection:
    // it is answered on the old one.
    for client in &mut idle {
        let reply = client
            .request("GET", "/healthz", None)
            .expect("an idle connection is requeued, not closed");
        assert_eq!(reply.status, 200, "{}", reply.body);
    }
    drop(idle);
    let stats = stop(server);
    assert_eq!(
        stats.connections, 3,
        "each connection counts once: {stats:?}"
    );
    assert_eq!(stats.internal, 0, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
}

#[test]
fn a_request_sent_on_an_idle_kept_alive_connection_is_served() {
    // One worker. Client A's kept-alive connection goes quiet, client B
    // connects and is served, and A then sends on the same socket: the
    // worker gave A up for B, but the request must be answered there,
    // not lost to a close.
    let (server, addr) = start(ServeConfig {
        workers: 1,
        read_timeout: Duration::from_secs(5),
        ..test_config()
    });
    let mut a = Client::connect(&addr).unwrap();
    assert_eq!(a.request("GET", "/healthz", None).unwrap().status, 200);
    let b = Client::connect(&addr)
        .unwrap()
        .request_once("POST", "/v1/solve", Some("{\"total_ceas\":32}"))
        .unwrap();
    assert_eq!(b.status, 200, "{}", b.body);
    let again = a
        .request("POST", "/v1/solve", Some("{\"total_ceas\":64}"))
        .expect("A's connection is still open");
    assert_eq!(again.status, 200, "{}", again.body);
    drop(a);
    let stats = stop(server);
    assert_eq!(
        stats.connections, 2,
        "each connection counts once: {stats:?}"
    );
    assert_eq!(stats.served_ok, 3, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
    assert_eq!(stats.internal, 0, "{stats:?}");
}

#[test]
fn idle_connections_ahead_in_the_queue_do_not_delay_a_new_client() {
    // One worker and six kept-alive connections gone quiet, five of them
    // requeued: a new client behind them waits about one idle poll, not
    // one poll per idle connection ahead of it, and every idle client is
    // still answered on its old connection.
    let (server, addr) = start(ServeConfig {
        workers: 1,
        queue_capacity: 16,
        read_timeout: Duration::from_secs(10),
        ..test_config()
    });
    let mut idle: Vec<Client> = (0..6)
        .map(|_| {
            let mut client = Client::connect(&addr).unwrap();
            assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
            client
        })
        .collect();
    let started = Instant::now();
    let fresh = Client::connect(&addr)
        .unwrap()
        .request_once("POST", "/v1/solve", Some("{\"total_ceas\":32}"))
        .unwrap();
    let waited = started.elapsed();
    assert_eq!(fresh.status, 200, "{}", fresh.body);
    assert!(
        waited < Duration::from_millis(200),
        "a new client waited {waited:?} behind six idle keep-alive connections"
    );
    for client in &mut idle {
        let reply = client
            .request("GET", "/healthz", None)
            .expect("an idle connection is requeued, not closed");
        assert_eq!(reply.status, 200, "{}", reply.body);
    }
    drop(idle);
    let stats = stop(server);
    assert_eq!(
        stats.connections, 7,
        "each connection counts once: {stats:?}"
    );
    assert_eq!(stats.internal, 0, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
}

#[test]
fn saturated_queue_sheds_immediately_with_overloaded() {
    // One worker stuck behind injected 300ms delays on every request and
    // a queue of 1: further connections must be shed at accept time.
    let (server, addr) = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        deadline: Duration::from_secs(10),
        chaos: Some(ChaosSpec::parse("panic=0,worker=0,delay=1:300").unwrap()),
        ..test_config()
    });
    // Keep the worker and the queue saturated with slow solves for the
    // whole probe window: each busy client loops connect → slow solve →
    // drop, tolerating its own shed replies, so there is no moment when
    // the backlog drains out from under the probe.
    let busy_until = Instant::now() + Duration::from_secs(3);
    let busy: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                while Instant::now() < busy_until {
                    let Ok(mut client) = Client::connect(&addr) else {
                        continue;
                    };
                    let body = format!("{{\"total_ceas\":{}}}", 40 + i);
                    let _ = client.request("POST", "/solve", Some(&body));
                }
            })
        })
        .collect();
    // While the backlog exists (one 300ms solve at a time, several
    // waiting), probing must observe a shed. An individual probe can
    // race a momentarily free queue slot under scheduling noise, so
    // probe repeatedly; each probe that IS shed must come back with the
    // structured `overloaded` envelope, never a silent close or a hang.
    let probing_started = Instant::now();
    let mut saw_shed = false;
    while probing_started.elapsed() < Duration::from_millis(2_500) {
        let started = Instant::now();
        let reply = raw_roundtrip(&addr, b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
            .expect("a reply, never a silent close");
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "probe hung for {:?}",
            started.elapsed()
        );
        if reply.starts_with("HTTP/1.1 503") {
            assert!(reply.contains("\"kind\":\"overloaded\""), "{reply}");
            saw_shed = true;
            break;
        }
        // Admitted and answered: the queue momentarily had room.
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    }
    assert!(saw_shed, "a saturated queue never shed a connection");
    for thread in busy {
        let _ = thread.join();
    }
    let stats = stop(server);
    assert!(stats.shed >= 1, "at least one connection shed: {stats:?}");
}

#[test]
fn deadline_overrun_gets_504() {
    // Injected 300ms delay on every request with a 50ms deadline: every
    // solve must come back as deadline_exceeded, not hang.
    let (server, addr) = start(ServeConfig {
        workers: 1,
        deadline: Duration::from_millis(50),
        chaos: Some(ChaosSpec::parse("panic=0,worker=0,delay=1:300").unwrap()),
        ..test_config()
    });
    let mut client = Client::connect(&addr).unwrap();
    let response = client
        .request("POST", "/solve", Some("{\"total_ceas\":32}"))
        .unwrap();
    assert_eq!(response.status, 504, "{}", response.body);
    assert!(
        response.body.contains("\"kind\":\"deadline_exceeded\""),
        "{}",
        response.body
    );
    drop(client);
    let stats = stop(server);
    assert!(stats.deadline_exceeded >= 1);
}

#[test]
fn memoized_replies_are_byte_identical() {
    let (server, addr) = start(test_config());
    let mut client = Client::connect(&addr).unwrap();
    let body = "{\"total_ceas\":256,\"techniques\":[{\"kind\":\"dram_cache\",\"density\":8}]}";
    let cold = client.request("POST", "/solve", Some(body)).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(cold.cache.as_deref(), Some("miss"));
    for _ in 0..5 {
        let warm = client.request("POST", "/solve", Some(body)).unwrap();
        assert_eq!(warm.status, 200);
        assert_eq!(warm.cache.as_deref(), Some("hit"));
        assert_eq!(warm.body, cold.body, "memoized reply drifted");
    }
    // A semantically-identical but textually-different request hits too:
    // the cache key is the canonical problem, not the request bytes.
    let reordered = "{\"techniques\":[{\"density\":8,\"kind\":\"dram_cache\"}],\"total_ceas\":256}";
    let warm = client.request("POST", "/solve", Some(reordered)).unwrap();
    assert_eq!(warm.cache.as_deref(), Some("hit"));
    assert_eq!(warm.body, cold.body);
    drop(client);
    let stats = stop(server);
    assert_eq!(stats.cache_misses, 1);
    assert!(stats.cache_hits >= 6);
}

#[test]
fn graceful_drain_finishes_in_flight_work_and_closes_the_port() {
    let (server, addr) = start(ServeConfig {
        workers: 2,
        // Slow every request a bit so shutdown provably races in-flight
        // work and loses.
        chaos: Some(ChaosSpec::parse("panic=0,worker=0,delay=1:150").unwrap()),
        deadline: Duration::from_secs(10),
        ..test_config()
    });
    let in_flight: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let body = format!("{{\"total_ceas\":{}}}", 60 + i);
                client.request("POST", "/solve", Some(&body)).unwrap()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let handle = server.shutdown_handle();
    handle.shutdown();
    // In-flight requests complete with real answers, not resets.
    for thread in in_flight {
        let response = thread.join().expect("in-flight client");
        assert_eq!(response.status, 200, "{}", response.body);
    }
    let stats = server.join();
    assert_eq!(stats.served_ok, 2);
    // After join the port is closed: connecting must fail.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "port should be closed after drain"
    );
}

#[test]
fn unknown_endpoint_and_wrong_method_are_structured_errors() {
    let (server, addr) = start(test_config());
    let mut client = Client::connect(&addr).unwrap();
    let missing = client.request("GET", "/nope", None).unwrap();
    assert_eq!(missing.status, 404);
    assert!(missing.body.contains("\"kind\":\"not_found\""));
    let wrong = client.request("GET", "/solve", None).unwrap();
    assert_eq!(wrong.status, 405);
    assert!(wrong.body.contains("\"kind\":\"invalid_request\""));
    drop(client);
    stop(server);
}

#[test]
fn versioned_solve_alias_is_byte_identical_to_legacy() {
    let (server, addr) = start(test_config());
    let mut client = Client::connect(&addr).unwrap();
    let body = r#"{"total_ceas":256,"techniques":[{"kind":"dram_cache","density":8}]}"#;
    let legacy = client.request("POST", "/solve", Some(body)).unwrap();
    let versioned = client.request("POST", "/v1/solve", Some(body)).unwrap();
    assert_eq!(legacy.status, 200);
    assert_eq!(versioned.status, 200);
    assert_eq!(
        legacy.body, versioned.body,
        "alias and versioned replies must not drift"
    );
    // Same parser, same renderer, same memo entry: the alias warmed the
    // cache for the versioned path.
    assert_eq!(legacy.cache.as_deref(), Some("miss"));
    assert_eq!(versioned.cache.as_deref(), Some("hit"));
    drop(client);
    stop(server);
}

#[test]
fn named_sweeps_match_the_registry_tables() {
    use bandwall_experiments::sweep::{named_sweep, sweep_block};
    let (server, addr) = start(test_config());
    let mut client = Client::connect(&addr).unwrap();
    // The acceptance bar: at least two catalogue sweeps must return the
    // same core counts over the wire as the registry figures compute.
    for name in ["fig04_cache_compression", "fig05_dram_cache"] {
        let variants = named_sweep(name).expect("catalogue sweep resolves");
        let (_, expected_cores) = sweep_block(&variants).expect("registry sweep solves");
        let response = client
            .request(
                "POST",
                "/v1/sweep",
                Some(&format!("{{\"sweep\":\"{name}\"}}")),
            )
            .unwrap();
        assert_eq!(response.status, 200, "{name}: {}", response.body);
        let wire_cores: Vec<u64> = response
            .body
            .split("\"supportable_cores\":")
            .skip(1)
            .map(|rest| {
                rest.split(',')
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("integer core count")
            })
            .collect();
        assert_eq!(
            wire_cores, expected_cores,
            "{name}: wire sweep drifted from the registry table"
        );
        for variant in &variants {
            assert!(
                response
                    .body
                    .contains(&format!("\"label\":\"{}\"", variant.label)),
                "{name}: row label '{}' missing from {}",
                variant.label,
                response.body
            );
        }
    }
    drop(client);
    stop(server);
}

#[test]
fn memoized_sweeps_are_byte_identical_and_hit_after_warmup() {
    let (server, addr) = start(test_config());
    let mut client = Client::connect(&addr).unwrap();
    let body = r#"{"sweep":"fig06_3d_cache"}"#;
    let first = client.request("POST", "/v1/sweep", Some(body)).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.cache.as_deref(), Some("miss"));
    let second = client.request("POST", "/v1/sweep", Some(body)).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(
        second.cache.as_deref(),
        Some("hit"),
        "every variant should hit after the warming sweep"
    );
    assert_eq!(first.body, second.body, "memoized sweep drifted");
    // A sweep variant's solve shares the memo entry with /v1/solve.
    let solve = client
        .request("POST", "/v1/solve", Some(r#"{"total_ceas":32}"#))
        .unwrap();
    assert_eq!(solve.status, 200);
    assert_eq!(
        solve.cache.as_deref(),
        Some("hit"),
        "the sweep's base variant should have warmed the solve cache"
    );
    drop(client);
    stop(server);
}

#[test]
fn oversized_sweeps_and_batches_get_413() {
    let (server, addr) = start(test_config());
    let mut client = Client::connect(&addr).unwrap();
    let variants: Vec<String> = (0..65).map(|i| format!("{{\"label\":\"v{i}\"}}")).collect();
    let sweep = format!("{{\"variants\":[{}]}}", variants.join(","));
    let response = client.request("POST", "/v1/sweep", Some(&sweep)).unwrap();
    assert_eq!(response.status, 413, "{}", response.body);
    assert!(response.body.contains("\"kind\":\"invalid_request\""));

    let jobs: Vec<&str> = (0..33)
        .map(|_| r#"{"kind":"sweep","sweep":"fig10_sectored"}"#)
        .collect();
    let batch = format!("{{\"jobs\":[{}]}}", jobs.join(","));
    let response = client.request("POST", "/v1/batch", Some(&batch)).unwrap();
    assert_eq!(response.status, 413, "{}", response.body);
    assert!(response.body.contains("\"kind\":\"invalid_request\""));
    // The connection survives the rejections.
    assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    drop(client);
    stop(server);
}

#[test]
fn batch_partial_failure_keeps_every_slot_in_order() {
    use bandwall_experiments::serve::json::Json;
    let (server, addr) = start(test_config());
    let mut client = Client::connect(&addr).unwrap();
    let body = r#"{"jobs":[
        {"kind":"solve","problem":{"total_ceas":32}},
        {"kind":"warp_drive"},
        {"kind":"sweep","sweep":"fig04_cache_compression"},
        {"kind":"solve","problem":{"total_ceas":-1}}
    ]}"#;
    let response = client.request("POST", "/v1/batch", Some(body)).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let doc = Json::parse(&response.body).expect("well-formed batch reply");
    let results = doc
        .as_obj()
        .and_then(|o| o.get("result"))
        .and_then(Json::as_obj)
        .and_then(|o| o.get("results"))
        .and_then(Json::as_arr)
        .expect("results array");
    assert_eq!(results.len(), 4, "one slot per job, in request order");
    let statuses: Vec<&str> = results
        .iter()
        .map(|slot| {
            slot.as_obj()
                .and_then(|o| o.get("status"))
                .and_then(Json::as_str)
                .expect("slot status")
        })
        .collect();
    assert_eq!(statuses, ["ok", "error", "ok", "error"]);
    // The good solve carries a result; the bad kind names itself.
    assert!(response.body.contains("\"supportable_cores\":11"));
    assert!(response.body.contains("unknown job kind 'warp_drive'"));
    assert!(response.body.contains("model error"));
    drop(client);
    stop(server);
}

#[test]
fn techniques_endpoint_lists_the_catalogue() {
    let (server, addr) = start(test_config());
    let mut client = Client::connect(&addr).unwrap();
    let response = client.request("GET", "/v1/techniques", None).unwrap();
    assert_eq!(response.status, 200);
    for label in [
        "CC", "DRAM", "3D", "Fltr", "SmCo", "LC", "Sect", "SmCl", "CC/LC", "3D/T", "CXL",
    ] {
        assert!(
            response.body.contains(&format!("\"label\":\"{label}\"")),
            "missing {label} in {}",
            response.body
        );
    }
    assert!(response.body.contains("\"sweeps\":["));
    assert!(response.body.contains("fig12_cache_link"));
    // Registry extensions surface in both lists with no wire-layer edits.
    assert!(response.body.contains("\"id\":\"thermal_capped_3d\""));
    assert!(response.body.contains("\"id\":\"cxl_harvesting\""));
    // Wrong method on a versioned path is a structured 405.
    let post = client
        .request("POST", "/v1/techniques", Some("{}"))
        .unwrap();
    assert_eq!(post.status, 405);
    assert!(post.body.contains("\"kind\":\"invalid_request\""));
    drop(client);
    stop(server);
}

#[test]
fn every_advertised_technique_round_trips_through_a_custom_sweep() {
    use bandwall_experiments::serve::json::Json;
    use std::collections::BTreeMap;

    /// Re-serializes a flat technique spec ({"kind": "...", field: num})
    /// exactly as a client would echo it back.
    fn render_flat(obj: &BTreeMap<String, Json>) -> String {
        let fields: Vec<String> = obj
            .iter()
            .map(|(key, value)| {
                if let Some(text) = value.as_str() {
                    format!("\"{key}\":\"{text}\"")
                } else {
                    format!("\"{key}\":{}", value.as_num().expect("numeric field"))
                }
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    let (server, addr) = start(test_config());
    let mut client = Client::connect(&addr).unwrap();
    let listing = client.request("GET", "/v1/techniques", None).unwrap();
    assert_eq!(listing.status, 200);
    let doc = Json::parse(&listing.body).expect("well-formed listing");
    let techniques = doc
        .as_obj()
        .and_then(|o| o.get("result"))
        .and_then(Json::as_obj)
        .and_then(|o| o.get("techniques"))
        .and_then(Json::as_arr)
        .expect("techniques array");
    assert!(
        techniques.len() >= 11,
        "the extended catalogue is advertised: {}",
        listing.body
    );
    // Every advertised entry, at every assumption band, must be
    // acceptable as a custom /v1/sweep variant exactly as listed — the
    // listing and the validator are views of the same registry.
    for entry in techniques {
        let obj = entry.as_obj().expect("technique object");
        let id = obj.get("id").and_then(Json::as_str).expect("technique id");
        for level in ["pessimistic", "realistic", "optimistic"] {
            let spec = obj
                .get("assumptions")
                .and_then(Json::as_obj)
                .and_then(|bands| bands.get(level))
                .and_then(Json::as_obj)
                .and_then(|band| band.get("technique"))
                .and_then(Json::as_obj)
                .unwrap_or_else(|| panic!("{id}: no {level} technique spec"));
            let body = format!(
                "{{\"variants\":[{{\"label\":\"base\"}},\
                 {{\"label\":\"{id}\",\"technique\":{}}}]}}",
                render_flat(spec)
            );
            let response = client.request("POST", "/v1/sweep", Some(&body)).unwrap();
            assert_eq!(response.status, 200, "{id} {level}: {}", response.body);
            assert!(
                response.body.contains(&format!("\"label\":\"{id}\"")),
                "{id} {level}: variant row missing from {}",
                response.body
            );
        }
    }
    drop(client);
    stop(server);
}

#[test]
fn four_workers_on_one_queue_serve_all_endpoints_and_drain() {
    let (server, addr) = start(ServeConfig {
        workers: 4,
        queue_capacity: 16,
        ..test_config()
    });
    let clients: Vec<_> = (0..4)
        .map(|salt| {
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                for i in 0..25 {
                    let body = format!("{{\"total_ceas\":{}}}", 40 + (salt * 25 + i) % 60);
                    let solve = client.request("POST", "/v1/solve", Some(&body)).unwrap();
                    assert_eq!(solve.status, 200, "{}", solve.body);
                }
                let sweep = client
                    .request("POST", "/v1/sweep", Some(r#"{"sweep":"fig07_filtering"}"#))
                    .unwrap();
                assert_eq!(sweep.status, 200, "{}", sweep.body);
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    let stats = stop(server);
    assert_eq!(stats.served_ok, 4 * 26);
    assert_eq!(stats.internal, 0);
    assert_eq!(stats.shed, 0, "16 queued connections never overflow");
    // The port is closed after the drain.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err());
}

/// Shuts `server` down from a helper thread and waits up to `limit` for
/// the drain; `None` means it did not finish in time.
fn drain_within(server: Server, limit: Duration) -> Option<StatsSnapshot> {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown_handle().shutdown();
        let _ = done.send(server.join());
    });
    finished.recv_timeout(limit).ok()
}

#[test]
fn idle_server_on_all_interfaces_drains_promptly() {
    for workers in [1, 4] {
        let server = Server::start(ServeConfig {
            addr: "0.0.0.0:0".to_string(),
            workers,
            ..test_config()
        })
        .expect("server starts");
        let port = server.addr().port();
        // Let the acceptor settle into its blocking accept().
        std::thread::sleep(Duration::from_millis(50));
        let stats = drain_within(server, Duration::from_secs(1))
            .unwrap_or_else(|| panic!("{workers}-worker idle server did not drain within 1 s"));
        assert_eq!(
            stats.connections, 0,
            "{workers} workers: the wake connection must never reach a worker: {stats:?}"
        );
        assert_eq!(stats.shed, 0, "{workers} workers: {stats:?}");
        let loopback = SocketAddr::from(([127, 0, 0, 1], port));
        assert!(
            TcpStream::connect_timeout(&loopback, Duration::from_millis(300)).is_err(),
            "{workers} workers: port should be closed after drain"
        );
    }
}

#[test]
fn calling_shutdown_twice_is_harmless() {
    let (server, addr) = start(test_config());
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    drop(client);
    let handle = server.shutdown_handle();
    handle.shutdown();
    handle.clone().shutdown();
    let stats = server.join();
    handle.shutdown();
    assert_eq!(stats.connections, 1, "{stats:?}");
    assert_eq!(stats.served_ok, 1, "{stats:?}");
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err());
}

/// Sends `jobs` — `(endpoint, standalone body)` pairs — as one batch and
/// asserts the reply is exactly the standalone replies' bodies, in
/// order, inside the batch envelope.
fn assert_batch_matches_standalone(client: &mut Client, jobs: &[(&str, String)]) {
    let mut expected_slots = Vec::new();
    let mut batch_jobs = Vec::new();
    for (endpoint, body) in jobs {
        let standalone = client.request("POST", endpoint, Some(body)).unwrap();
        expected_slots.push(standalone.body);
        let kind = endpoint.trim_start_matches("/v1/");
        let fields = if kind == "solve" {
            format!("\"problem\":{body}")
        } else {
            body.trim_start_matches('{')
                .trim_end_matches('}')
                .to_string()
        };
        batch_jobs.push(format!("{{\"kind\":\"{kind}\",{fields}}}"));
    }
    let batch = format!("{{\"jobs\":[{}]}}", batch_jobs.join(","));
    let response = client.request("POST", "/v1/batch", Some(&batch)).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let expected = format!(
        "{{\"status\":\"ok\",\"result\":{{\"results\":[{}]}}}}",
        expected_slots.join(",")
    );
    assert_eq!(
        response.body, expected,
        "batch slots differ from standalone replies"
    );
}

#[test]
fn batches_below_and_above_the_fanout_threshold_match_standalone_replies() {
    let (server, addr) = start(ServeConfig {
        workers: 4,
        ..test_config()
    });
    let mut client = Client::connect(&addr).unwrap();
    // Six solves: inline on the calling worker.
    let small = [
        ("/v1/solve", "{\"total_ceas\":48}".to_string()),
        ("/v1/sweep", "{\"sweep\":\"fig05_dram_cache\"}".to_string()),
        ("/v1/solve", "{\"total_ceas\":-1}".to_string()),
    ];
    assert_batch_matches_standalone(&mut client, &small);
    // Twelve jobs and 400+ solves: fanned out over helper threads.
    let mut large: Vec<(&str, String)> = Vec::new();
    for job in 0..12 {
        if job % 4 == 3 {
            large.push(("/v1/solve", format!("{{\"total_ceas\":{}}}", 70 + job)));
            continue;
        }
        let variants: Vec<String> = (0..48)
            .map(|v| {
                format!(
                    "{{\"technique\":{{\"kind\":\"dram_cache\",\"density\":{}}}}}",
                    1 + v + job
                )
            })
            .collect();
        large.push((
            "/v1/sweep",
            format!(
                "{{\"base\":{{\"total_ceas\":{}}},\"variants\":[{}]}}",
                100 + job,
                variants.join(",")
            ),
        ));
    }
    large.push(("/v1/sweep", "{\"sweep\":\"no_such_sweep\"}".to_string()));
    assert_batch_matches_standalone(&mut client, &large);
    drop(client);
    let stats = stop(server);
    assert_eq!(stats.internal, 0, "{stats:?}");
}
