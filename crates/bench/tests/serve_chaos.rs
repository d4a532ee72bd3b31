//! Chaos soak for `bandwall serve`: thousands of requests against a
//! server that is actively injecting handler panics, worker deaths, and
//! delays. The service contract under chaos:
//!
//! * every request gets a well-formed JSON reply or an explicit
//!   shed/timeout — never a hang, never garbage;
//! * every `500 internal` is an *injected* panic (the message says so);
//!   the organic error rate is zero;
//! * worker deaths are respawned by the supervisor and the server keeps
//!   serving;
//! * after the soak, SIGTERM-equivalent drain completes and the final
//!   counters balance.

use bandwall_experiments::fault::ChaosSpec;
use bandwall_experiments::serve::loadgen::Client;
use bandwall_experiments::serve::{ServeConfig, Server};
use std::time::Duration;

/// One soak client: issues `requests` solves, opening a fresh
/// connection every `reconnect_every` requests (workers are
/// run-to-completion, so connection churn is what routes load across
/// workers — and what gives the between-connections worker fault point
/// chances to fire). Returns (ok, internal, other_error) counts and
/// panics on any reply that violates the contract.
fn soak_client(
    addr: std::net::SocketAddr,
    requests: usize,
    reconnect_every: usize,
    salt: usize,
) -> (u64, u64, u64) {
    let mut ok = 0;
    let mut internal = 0;
    let mut other = 0;
    let mut client: Option<Client> = None;
    for i in 0..requests {
        if i % reconnect_every == 0 {
            client = None;
        }
        if client.is_none() {
            client = Some(Client::connect(&addr).expect("reconnect"));
        }
        let body = format!("{{\"total_ceas\":{}}}", 24 + (salt * 31 + i) % 101);
        let result = client
            .as_mut()
            .unwrap()
            .request("POST", "/solve", Some(&body));
        let response = match result {
            Ok(response) => response,
            Err(_) => {
                // A worker death can sever the socket mid-request; a
                // reconnect must always succeed while the server lives.
                client = None;
                continue;
            }
        };
        match response.status {
            200 => {
                assert!(
                    response.body.contains("\"supportable_cores\""),
                    "malformed ok body: {}",
                    response.body
                );
                ok += 1;
            }
            500 => {
                // The one ironclad rule: organic failures are zero, so
                // every internal error must self-identify as injected.
                assert!(
                    response.body.contains("injected chaos"),
                    "organic internal error: {}",
                    response.body
                );
                internal += 1;
            }
            503 | 504 | 408 => other += 1,
            status => panic!("unexpected status {status}: {}", response.body),
        }
        if response.close {
            client = None;
        }
    }
    (ok, internal, other)
}

#[test]
fn soak_under_standard_chaos_never_breaks_the_contract() {
    // ~12k requests across 3 clients under the standard chaos spec
    // (1% handler panics, 0.1% worker deaths per connection, 2% delays).
    // Short delays and a generous deadline keep the soak fast while
    // still exercising every fault path.
    let spec = ChaosSpec::parse("panic=0.01,worker=0.001,delay=0.02:2,seed=42").unwrap();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 3,
        queue_capacity: 64,
        deadline: Duration::from_secs(5),
        read_timeout: Duration::from_secs(2),
        cache_capacity: 64,
        chaos: Some(spec),
    })
    .expect("server starts");
    let addr = server.addr();

    const CLIENTS: usize = 3;
    const REQUESTS: usize = 4_000;
    let threads: Vec<_> = (0..CLIENTS)
        .map(|salt| std::thread::spawn(move || soak_client(addr, REQUESTS, 100, salt)))
        .collect();
    let mut ok = 0;
    let mut internal = 0;
    let mut other = 0;
    for thread in threads {
        let (o, i, e) = thread.join().expect("soak client panicked");
        ok += o;
        internal += i;
        other += e;
    }

    server.shutdown_handle().shutdown();
    let stats = server.join();

    // The soak really ran at scale and mostly succeeded.
    assert!(
        ok >= (CLIENTS * REQUESTS) as u64 * 9 / 10,
        "too few successes: {ok} ok, {internal} injected internals, {other} other"
    );
    // Injected panics actually fired (1% of ~12k is ~120)...
    assert!(internal > 0, "chaos never fired a handler panic");
    // ...and every one was contained: the server-side counter matches
    // what clients saw plus nothing (no hidden internal errors).
    assert_eq!(stats.internal, internal, "internal errors unaccounted for");
    // Drain was clean: the counters balance and nothing hung. (Worker
    // deaths are per-connection and thus rare here — the respawn path
    // has its own dedicated storm test below.)
    assert!(
        stats.served_ok >= ok,
        "server counted fewer oks than clients saw"
    );
}

#[test]
fn worker_death_storm_is_survived_by_the_supervisor() {
    // A brutal spec: ~1 in 7 connections kills its worker on the way
    // out. With one connection per request, the supervisor must keep
    // respawning and the server must keep answering.
    let spec = ChaosSpec::parse("panic=0,worker=0.15,delay=0:1,seed=7").unwrap();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 32,
        deadline: Duration::from_secs(5),
        read_timeout: Duration::from_secs(2),
        cache_capacity: 64,
        chaos: Some(spec),
    })
    .expect("server starts");
    let addr = server.addr();

    let (ok, internal, other) = soak_client(addr, 150, 1, 0);
    assert!(
        ok >= 120,
        "server stopped answering under worker churn: {ok} ok, {other} other"
    );
    assert_eq!(internal, 0, "worker deaths must never surface as 500s");

    server.shutdown_handle().shutdown();
    let stats = server.join();
    assert!(
        stats.worker_respawns > 0,
        "supervisor never respawned: {stats:?}"
    );
    assert_eq!(stats.internal, 0);
}

#[test]
fn batch_soak_under_chaos_keeps_the_partial_failure_contract() {
    // Batches under the standard chaos spec. The contract extends the
    // solve one: a 200 batch reply always carries one slot per job with
    // job-level failures contained in place, and every 500 is an
    // injected panic — chaos must never collapse a batch into a
    // malformed or truncated reply.
    let spec = ChaosSpec::parse("panic=0.02,worker=0.002,delay=0.02:2,seed=9").unwrap();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 32,
        deadline: Duration::from_secs(5),
        read_timeout: Duration::from_secs(2),
        cache_capacity: 64,
        chaos: Some(spec),
    })
    .expect("server starts");
    let addr = server.addr();

    let mut ok = 0;
    let mut internal = 0;
    let mut client: Option<Client> = None;
    for i in 0..800 {
        if client.is_none() {
            client = Some(Client::connect(&addr).expect("reconnect"));
        }
        let body = format!(
            "{{\"jobs\":[{{\"kind\":\"solve\",\"problem\":{{\"total_ceas\":{}}}}},\
             {{\"kind\":\"bogus\"}},\
             {{\"kind\":\"sweep\",\"sweep\":\"fig04_cache_compression\"}}]}}",
            24 + i % 101
        );
        let result = client
            .as_mut()
            .unwrap()
            .request("POST", "/v1/batch", Some(&body));
        let response = match result {
            Ok(response) => response,
            Err(_) => {
                client = None;
                continue;
            }
        };
        match response.status {
            200 => {
                // Every slot present, the bad kind contained in place.
                assert_eq!(
                    response.body.matches("\"status\":").count(),
                    4, // top-level ok + three job slots
                    "slot went missing: {}",
                    response.body
                );
                assert!(
                    response.body.contains("unknown job kind 'bogus'"),
                    "bad-job envelope lost: {}",
                    response.body
                );
                ok += 1;
            }
            500 => {
                assert!(
                    response.body.contains("injected chaos"),
                    "organic internal error: {}",
                    response.body
                );
                internal += 1;
            }
            503 | 504 | 408 => {}
            status => panic!("unexpected status {status}: {}", response.body),
        }
        if response.close {
            client = None;
        }
    }

    server.shutdown_handle().shutdown();
    let stats = server.join();
    assert!(ok >= 700, "too few batch successes: {ok} ok");
    assert!(internal > 0, "chaos never fired inside a batch");
    assert_eq!(stats.internal, internal, "internal errors unaccounted for");
}
