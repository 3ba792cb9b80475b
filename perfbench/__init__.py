"""End-to-end benchmark of fairdrop's train -> repair -> oracle workflow; see README.md."""
