fn collide() -> u32 {
    7
}

pub fn live() -> u32 {
    collide()
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_the_neighbour() {
        assert_eq!(crate::items::used_by_other_unit_tests(), 2);
        assert_eq!(super::live(), 7);
    }
}
