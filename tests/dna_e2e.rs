//! End-to-end §4.2: the DNA database metaapplication.

use pardis::core::{ClientGroup, Orb};
use pardis::generated::dna::{DnaDbProxy, ListServerProxy, Status};
use pardis::netsim::{Network, TimeScale};
use pardis_apps::dna::{
    classify, derivatives, gen_database, run_fig4_client, spawn_dna_server, DnaServerConfig,
    Placement, LIST_NAMES,
};

fn small_cfg(placement: Placement, nthreads: usize) -> DnaServerConfig {
    DnaServerConfig {
        nthreads,
        db_size: 300,
        len_range: (20, 40),
        seed: 7,
        placement,
        chunk: 32,
        weights: [2, 1, 1, 1, 1],
        scan_cost_us: 0,
    }
}

/// Expected per-class match counts, computed sequentially.
fn expected_counts(cfg: &DnaServerConfig, query: &str) -> [usize; 5] {
    let db = gen_database(cfg.db_size, cfg.len_range.0, cfg.len_range.1, cfg.seed);
    let deriv = derivatives(query);
    let mut counts = [0usize; 5];
    for s in &db {
        if let Some(c) = classify(s, query, &deriv) {
            counts[c] += 1;
        }
    }
    counts
}

#[test]
fn search_fills_lists_and_resolves() {
    let (orb, host) = Orb::single_host();
    let cfg = small_cfg(Placement::Distributed, 3);
    let server = spawn_dna_server(&orb, host, cfg.clone());

    let query = "ACGT";
    let expect = expected_counts(&cfg, query);
    assert!(expect.iter().sum::<usize>() > 0, "query must hit something");

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let db = DnaDbProxy::spmd_bind(&client, "dna_db").unwrap();
    let (status,) = db.search(&query.to_string()).unwrap();
    assert_eq!(status, Status::Done);

    // After completion, an empty query returns each list whole.
    for (l, name) in LIST_NAMES.iter().enumerate() {
        let proxy = ListServerProxy::bind(&client, name).unwrap();
        let (hits,) = proxy.match_(&String::new()).unwrap();
        assert_eq!(hits.len(), expect[l], "list {name} has the wrong size");
    }
    server.shutdown();
}

#[test]
fn queries_interleave_with_the_search() {
    let (orb, host) = Orb::single_host();
    let server = spawn_dna_server(&orb, host, small_cfg(Placement::Distributed, 2));

    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let (elapsed, completed, _hits) =
        run_fig4_client(&client, "ACGT", &["GG", "AT", "CC"]).unwrap();
    assert!(completed >= 5, "at least the final round of queries must run");
    assert!(elapsed > 0.0);
    server.shutdown();
}

#[test]
fn centralized_and_distributed_agree_on_results() {
    let query = "GATTA";
    let mut sizes = Vec::new();
    for placement in [Placement::Centralized, Placement::Distributed] {
        let (orb, host) = Orb::single_host();
        let cfg = small_cfg(placement, 4);
        let server = spawn_dna_server(&orb, host, cfg);
        let client = ClientGroup::create(&orb, host, 1).attach(0, None);
        let db = DnaDbProxy::spmd_bind(&client, "dna_db").unwrap();
        let (status,) = db.search(&query.to_string()).unwrap();
        assert_eq!(status, Status::Done);
        let mut run = Vec::new();
        for name in LIST_NAMES {
            let proxy = ListServerProxy::bind(&client, name).unwrap();
            let (hits,) = proxy.match_(&String::new()).unwrap();
            run.push(hits.len());
        }
        sizes.push(run);
        server.shutdown();
    }
    assert_eq!(sizes[0], sizes[1], "placement must not change the results");
}

#[test]
fn second_search_after_first_completes() {
    let (orb, host) = Orb::single_host();
    let server = spawn_dna_server(&orb, host, small_cfg(Placement::Distributed, 2));
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let db = DnaDbProxy::spmd_bind(&client, "dna_db").unwrap();
    let (s1,) = db.search(&"ACGT".to_string()).unwrap();
    let (s2,) = db.search(&"TTTT".to_string()).unwrap();
    assert_eq!(s1, Status::Done);
    assert_eq!(s2, Status::Done);
    server.shutdown();
}

#[test]
fn overlapping_searches_both_complete() {
    // The second search is issued before the first can resolve (each
    // thread's scan sleeps at least 1 ms), so the server queues it behind
    // the first and runs it after the first's release.
    let (orb, host) = Orb::single_host();
    let cfg = DnaServerConfig { scan_cost_us: 10, ..small_cfg(Placement::Distributed, 3) };
    let server = spawn_dna_server(&orb, host, cfg.clone());
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let db = DnaDbProxy::spmd_bind(&client, "dna_db").unwrap();
    let queries = ["ACGT", "GATTA"];
    let searches: Vec<_> = queries.iter().map(|q| db.search_nb(&q.to_string()).unwrap()).collect();
    for search in &searches {
        assert_eq!(search.ret.get().unwrap(), Status::Done);
    }

    // Each list holds both searches' matches.
    let [first, second] = queries.map(|q| expected_counts(&cfg, q));
    for (l, name) in LIST_NAMES.iter().enumerate() {
        let proxy = ListServerProxy::bind(&client, name).unwrap();
        let (hits,) = proxy.match_(&String::new()).unwrap();
        assert_eq!(hits.len(), first[l] + second[l], "list {name} has the wrong size");
    }
    server.shutdown();
}

#[test]
fn list_servers_run_on_their_owning_threads() {
    // With netsim accounting off and local bypass disabled, queries to
    // distributed lists still route correctly (each single object lives on
    // a different computing thread).
    let net = Network::new(TimeScale::off());
    let host = net.add_host("solo");
    let orb = Orb::new(net);
    orb.set_local_bypass(false);
    let server = spawn_dna_server(&orb, host, small_cfg(Placement::Distributed, 5));
    let client = ClientGroup::create(&orb, host, 1).attach(0, None);
    let db = DnaDbProxy::spmd_bind(&client, "dna_db").unwrap();
    db.search(&"ACG".to_string()).unwrap();
    for name in LIST_NAMES {
        let proxy = ListServerProxy::bind(&client, name).unwrap();
        let (hits,) = proxy.match_(&"A".to_string()).unwrap();
        // Every hit must contain the query, by the match contract.
        assert!(hits.iter().all(|h| h.contains('A')));
    }
    server.shutdown();
}
