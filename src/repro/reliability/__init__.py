"""Section 6 reliability analysis: nines of consistency and availability."""
