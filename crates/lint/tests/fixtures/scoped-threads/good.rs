// Fixture: fan-outs through the one primitive — no findings.
use rm_graph::par::{available_cores, par_map_ordered};

pub fn doubled(items: Vec<u64>) -> Vec<u64> {
    par_map_ordered(items, available_cores(), |x| x * 2)
}

pub fn waived() -> u64 {
    // A deliberate one-off helper thread. rm-lint: allow(scoped-threads)
    std::thread::scope(|s| s.spawn(|| 7).join().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    #[test]
    fn races_a_helper_thread() {
        let h = std::thread::spawn(|| 1 + 1);
        assert_eq!(h.join().unwrap(), 2);
    }
}
