// Fixture: hand-rolled fan-outs — three findings expected (lines 5, 15, 20).
use std::sync::Mutex;

pub fn chunked(items: &[u64]) -> Vec<u64> {
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(8)
            .map(|c| s.spawn(move || c.iter().map(|x| x * 2).collect::<Vec<_>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    })
}

pub fn detached(total: &'static Mutex<u64>) {
    std::thread::spawn(move || *total.lock().unwrap() += 1);
}

pub fn named(total: &'static Mutex<u64>) {
    use std::thread;
    let _ = thread::Builder::new()
        .name("worker".into())
        .spawn(move || *total.lock().unwrap() += 1);
}
