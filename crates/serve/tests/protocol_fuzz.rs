//! Serve-protocol fuzz: random valid, malformed, and out-of-order
//! NDJSON request streams against [`Server`].
//!
//! Invariants under fuzz:
//!
//! * `handle_line` never panics — malformed JSON, unknown ops, mistyped
//!   fields, oversized payloads, duplicate ids, and withdraw/resolve/
//!   check in any order all come back as parseable one-line responses;
//! * every failure is in-band (`{"ok":false,…}` with an `error`
//!   string), never a dropped or empty response;
//! * after *any* accepted prefix of operations, `check` still reports
//!   `"identical":true` — the warm engine never silently diverges from
//!   the from-scratch reference, no matter what garbage was interleaved.
//!
//! Both server modes are fuzzed: unit-height and capacitated
//! (`hmin = 0.25`), the latter with random `height` fields above and
//! below the floor.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use treenet_core::SolverConfig;
use treenet_graph::Tree;
use treenet_model::ProblemBuilder;
use treenet_serve::Server;

const VERTICES: u32 = 10;

/// Two line networks so both pair and window submits are shape-valid.
fn server(hmin: Option<f64>) -> Server {
    let mut b = ProblemBuilder::new();
    b.add_network(Tree::line(VERTICES as usize)).unwrap();
    b.add_network(Tree::line(VERTICES as usize)).unwrap();
    let mut config = SolverConfig::default();
    if let Some(h) = hmin {
        config = config.with_hmin(h);
    }
    Server::new(b.build().unwrap(), &config).unwrap()
}

/// A pool of deliberately malformed lines: bad JSON, wrong types,
/// unknown ops, out-of-range ids, and an oversized payload.
fn malformed_line(rng: &mut SmallRng) -> String {
    match rng.gen_range(0..9u32) {
        0 => "garbage".to_string(),
        1 => "{}".to_string(),
        2 => r#"{"op":"fly"}"#.to_string(),
        3 => r#"{"op":"submit","id":1,"profit":1.0}"#.to_string(),
        4 => r#"{"op":"submit","id":-3,"u":0,"v":1,"profit":1.0}"#.to_string(),
        5 => r#"{"op":"submit","id":1,"u":0,"v":1,"profit":1.0,"height":"tall"}"#.to_string(),
        6 => r#"{"op":"submit","id":1,"u":0,"v":1,"profit":1.0,"networks":"all"}"#.to_string(),
        // Truncated mid-object.
        7 => r#"{"op":"submit","id":4,"u":0,"#.to_string(),
        // Oversized payload: a ~256 KiB junk field the parser must chew
        // through (or reject) without falling over.
        _ => format!(
            r#"{{"op":"submit","id":9,"u":0,"v":1,"profit":1.0,"pad":"{}"}}"#,
            "x".repeat(256 * 1024)
        ),
    }
}

/// A structurally valid (though not necessarily accepted) request line:
/// duplicate ids, unknown networks, heights below the floor, and
/// degenerate windows are all fair game — they must error in-band.
fn request_line(rng: &mut SmallRng, next_id: &mut u64, capacitated: bool) -> String {
    match rng.gen_range(0..10u32) {
        0..=4 => {
            // Submit; 1-in-4 reuses an id already burned.
            let id = if rng.gen_range(0..4u32) == 0 && *next_id > 0 {
                rng.gen_range(0..*next_id)
            } else {
                *next_id += 1;
                *next_id - 1
            };
            let height = if capacitated && rng.gen_range(0..2u32) == 0 {
                // Mostly above the 0.25 floor, sometimes below it.
                format!(
                    r#","height":{}"#,
                    [0.3, 0.5, 0.8, 1.0, 0.1][rng.gen_range(0..5usize)]
                )
            } else {
                String::new()
            };
            let networks = match rng.gen_range(0..3u32) {
                0 => String::new(),
                1 => format!(r#","networks":[{}]"#, rng.gen_range(0..2u32)),
                // Unknown network index: must be rejected in-band.
                _ => r#","networks":[7]"#.to_string(),
            };
            if rng.gen_range(0..3u32) == 0 {
                let release = rng.gen_range(0..6u32);
                let deadline = rng.gen_range(release..=9);
                let processing = rng.gen_range(0..6u32);
                format!(
                    r#"{{"op":"submit","id":{id},"release":{release},"deadline":{deadline},"processing":{processing},"profit":2.0{height}{networks}}}"#
                )
            } else {
                let u = rng.gen_range(0..VERTICES);
                let v = rng.gen_range(0..VERTICES);
                format!(
                    r#"{{"op":"submit","id":{id},"u":{u},"v":{v},"profit":1.5{height}{networks}}}"#
                )
            }
        }
        // Withdraw a random id — admitted, withdrawn, or never seen.
        5..=6 => {
            let bound = (*next_id).max(1) + 3;
            format!(r#"{{"op":"withdraw","id":{}}}"#, rng.gen_range(0..bound))
        }
        7 => r#"{"op":"resolve"}"#.to_string(),
        8 => [
            r#"{"op":"query"}"#,
            r#"{"op":"snapshot"}"#,
            r#"{"op":"stats"}"#,
        ][rng.gen_range(0..3usize)]
        .to_string(),
        _ => r#"{"op":"check"}"#.to_string(),
    }
}

/// Drives one fuzz script and checks every response invariant. Returns
/// the number of successful `check` responses observed.
fn drive(seed: u64, len: usize, capacitated: bool) -> Result<u32, TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut server = server(capacitated.then_some(0.25));
    let mut next_id = 0u64;
    let mut checks_ok = 0u32;
    for i in 0..len {
        let line = if rng.gen_range(0..4u32) == 0 {
            malformed_line(&mut rng)
        } else {
            request_line(&mut rng, &mut next_id, capacitated)
        };
        let response = server.handle_line(&line);
        let value: Value = serde_json::from_str(&response)
            .map_err(|e| TestCaseError::Fail(format!("op {i}: unparseable response: {e}")))?;
        let ok = match value.field("ok") {
            Ok(Value::Bool(ok)) => ok,
            other => {
                return Err(TestCaseError::Fail(format!(
                    "op {i}: response without boolean `ok`: {other:?} in {response}"
                )))
            }
        };
        if !ok {
            // Every failure must carry an in-band error string.
            prop_assert!(
                matches!(value.field("error"), Ok(Value::Str(_))),
                "op {i}: failed response without `error`: {response}"
            );
        } else if matches!(value.field("op"), Ok(Value::Str(op)) if op == "check") {
            // An accepted check must certify bitwise identity, whatever
            // prefix of valid and invalid traffic came before it.
            prop_assert!(
                response.contains(r#""identical":true"#),
                "op {i}: warm state diverged after accepted prefix: {response}"
            );
            checks_ok += 1;
        }
    }
    // Final check: still identical after the whole script.
    let response = server.handle_line(r#"{"op":"check"}"#);
    prop_assert!(
        response.contains(r#""identical":true"#),
        "final check diverged: {response}"
    );
    Ok(checks_ok + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Unit-mode server under mixed valid/malformed/interleaved traffic.
    #[test]
    fn unit_server_survives_fuzzed_streams(seed in 0u64..400) {
        let checks = drive(seed, 48, false)?;
        prop_assert!(checks >= 1);
    }

    /// Capacitated server (hmin = 0.25) under the same fuzz, with
    /// height-carrying submits above and below the floor.
    #[test]
    fn capacitated_server_survives_fuzzed_streams(seed in 1000u64..1400) {
        let checks = drive(seed, 48, true)?;
        prop_assert!(checks >= 1);
    }
}

/// A deterministic worst-case interleaving: duplicate ids, withdraw
/// before admit, double withdraw, resolve/check spam, oversized junk —
/// the connection stays usable throughout.
#[test]
fn hostile_interleaving_keeps_the_connection_usable() {
    let mut s = server(None);
    let big = format!(
        r#"{{"op":"submit","id":2,"u":0,"v":3,"profit":1.0,"pad":"{}"}}"#,
        "y".repeat(512 * 1024)
    );
    let lines = [
        r#"{"op":"withdraw","id":0}"#,
        r#"{"op":"check"}"#,
        r#"{"op":"submit","id":0,"u":0,"v":4,"profit":2.0}"#,
        r#"{"op":"submit","id":0,"u":1,"v":5,"profit":2.0}"#,
        big.as_str(),
        r#"{"op":"withdraw","id":0}"#,
        r#"{"op":"withdraw","id":0}"#,
        "not even json",
        r#"{"op":"resolve"}"#,
        r#"{"op":"check"}"#,
    ];
    for line in lines {
        let response = s.handle_line(line);
        assert!(
            response.contains(r#""ok":true"#) || response.contains(r#""error":"#),
            "{response}"
        );
    }
    // Window bounds near u32::MAX, where u32 sums wrap: each is refused
    // in-band for its real reason, never admitted with no instance.
    let windows = [
        (u32::MAX, 5, 1, "too short"),
        (u32::MAX - 1, 5, 2, "too short"),
        (0, u32::MAX, 1, "exceeds"),
    ];
    for (id, (release, deadline, processing, reason)) in (900..).zip(windows) {
        let response = s.handle_line(&format!(
            r#"{{"op":"submit","id":{id},"release":{release},"deadline":{deadline},"processing":{processing},"profit":1}}"#
        ));
        assert!(response.contains(r#""ok":false"#), "{response}");
        assert!(response.contains(reason), "{response}");
    }
    let response = s.handle_line(r#"{"op":"check"}"#);
    assert!(response.contains(r#""identical":true"#), "{response}");
}
