// Fixture: numbered entry names spelled out by hand, outside the backbone
// codec.  Each `format!` below must trip `entry-codec`.

impl SecureBrokerExtension {
    fn preverify(&self, message: &Message) {
        let count = message.element_str("count").and_then(|c| c.parse::<usize>().ok());
        for i in 0..count.unwrap_or(0) {
            if let Some(xml) = message.element_str(&format!("e{i}-xml")) {
                self.warm(&xml);
            }
        }
    }

    fn write_section(message: &mut Message, prefix: &str, entries: &[Entry]) {
        for (i, entry) in entries.iter().enumerate() {
            message.push_element(format!("{prefix}{i}-group"), entry.group());
            message.push_element(format!("r{}-owner", i), entry.owner());
        }
    }
}
