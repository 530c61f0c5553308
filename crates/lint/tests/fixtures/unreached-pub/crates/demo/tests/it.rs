#[test]
fn integration() {
    let _ = demo::items::used_by_integration_test();
    assert_eq!(demo::other::live(), 7);
}
