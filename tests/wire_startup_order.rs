//! Startup order of the wire deployment: the MLB must not route eNB
//! traffic before every configured MMP worker has linked. Here the
//! `scale_wired` roles are started by hand in the worst order — the
//! MLB, then the eNodeBs, then the workers 400 ms later — and the run
//! must still finish every session without dropping a message.
//!
//! Before the MLB held eNB traffic back, uplinks routed to a worker
//! with no link yet were counted in `dropped` and discarded, and their
//! sessions waited out the run deadline.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use scale_sim::{WireMode, WireRunConfig};

/// A role process, killed if the test ends (or fails) before it exits.
struct Proc(Child);

impl Drop for Proc {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

fn spawn(args: &[String]) -> Proc {
    Proc(
        Command::new(env!("CARGO_BIN_EXE_scale_wired"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn scale_wired"),
    )
}

/// Wait for `proc` within `deadline`, then return its exit success and
/// the counters of the `REPORT` line it printed on `out`.
fn finish(proc: &mut Proc, mut out: impl Read, deadline: Instant) -> (bool, HashMap<String, u64>) {
    let ok = loop {
        match proc.0.try_wait().expect("try_wait") {
            Some(status) => break status.success(),
            None if Instant::now() > deadline => break false,
            None => thread::sleep(Duration::from_millis(20)),
        }
    };
    let mut text = String::new();
    if ok {
        out.read_to_string(&mut text).expect("read stdout");
    }
    let report = text
        .lines()
        .filter_map(|l| l.strip_prefix("REPORT "))
        .flat_map(str::split_whitespace)
        .filter_map(|t| {
            let (k, v) = t.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect();
    (ok, report)
}

fn stdout_of(proc: &mut Proc) -> ChildStdout {
    proc.0.stdout.take().expect("stdout piped")
}

#[test]
fn workers_linking_after_the_enodebs_lose_no_session() {
    let cfg = WireRunConfig {
        n_enbs: 2,
        n_mmps: 2,
        total_vms: 8,
        replication: 2,
        ring_tokens: 64,
        seed: 77,
        n_ues: 150,
        ops_per_ue: 2,
        mode: WireMode::Closed { window: 24 },
    };
    let role = |role: &str, key: &str, idx: usize, addr: &str| {
        let mut a = vec![
            "--role".to_string(),
            role.to_string(),
            key.to_string(),
            idx.to_string(),
            "--addr".to_string(),
            addr.to_string(),
        ];
        a.extend(cfg.to_args());
        a
    };

    let mut mlb_args = vec!["--role".to_string(), "mlb".to_string()];
    mlb_args.extend(cfg.to_args());
    let mut mlb = spawn(&mlb_args);
    let mut mlb_out = BufReader::new(stdout_of(&mut mlb));
    let mut line = String::new();
    let port = loop {
        line.clear();
        assert!(
            mlb_out.read_line(&mut line).expect("read MLB stdout") > 0,
            "MLB exited before announcing its port"
        );
        if let Some(p) = line.trim().strip_prefix("PORT ") {
            break p.parse::<u16>().expect("port");
        }
    };
    let addr = format!("127.0.0.1:{port}");

    let mut enbs: Vec<Proc> = (0..cfg.n_enbs)
        .map(|c| spawn(&role("enb", "--cell", c, &addr)))
        .collect();
    thread::sleep(Duration::from_millis(400));
    let mut mmps: Vec<Proc> = (0..cfg.n_mmps)
        .map(|i| spawn(&role("mmp", "--index", i, &addr)))
        .collect();

    // Far below the roles' own 180 s deadline: a stranded session
    // fails the test instead of hanging it.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut sessions_done = 0;
    for e in &mut enbs {
        let out = stdout_of(e);
        let (ok, report) = finish(e, out, deadline);
        assert!(ok, "eNodeB did not finish cleanly");
        sessions_done += report["sessions_done"];
    }
    let (ok, mlb_report) = finish(&mut mlb, mlb_out, deadline);
    assert!(ok, "MLB did not finish cleanly");
    for m in &mut mmps {
        let out = stdout_of(m);
        assert!(finish(m, out, deadline).0, "MMP did not finish cleanly");
    }

    assert_eq!(sessions_done, cfg.n_ues as u64, "stranded sessions");
    assert_eq!(mlb_report["dropped"], 0, "uplinks dropped before the MMPs linked");
    assert_eq!(mlb_report["errors"], 0);
}
