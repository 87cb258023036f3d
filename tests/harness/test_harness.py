"""Harness utilities: testbed builder, report tables, formatting."""

import pytest

from repro.baselines import BaselineHost
from repro.harness import STACKS, FlexToeHost, Testbed, build_host
from repro.harness.report import Table, format_mops, format_rate, format_us


def test_addresses_unique_and_sequential():
    bed = Testbed()
    mac1, ip1 = bed.addresses()
    mac2, ip2 = bed.addresses()
    assert mac2 == mac1 + 1
    assert ip2 == ip1 + 1


def test_duplicate_host_name_rejected():
    bed = Testbed()
    bed.add_flextoe_host("a")
    with pytest.raises(ValueError):
        bed.add_flextoe_host("a")


def test_one_builder_per_stack_passes_its_keywords_through():
    bed = Testbed()
    hosts = {stack: build_host(bed, stack, stack, n_cores=4) for stack in STACKS}
    assert isinstance(hosts["flextoe"], FlexToeHost)
    assert all(isinstance(hosts[stack], BaselineHost) for stack in STACKS[1:])
    assert {len(host.machine.cores) for host in hosts.values()} == {4}
    assert build_host(bed, "tas", "tas2", fast_path_cores=1).personality.fast_path_cores == 1
    with pytest.raises(ValueError, match="'bogus'; known: flextoe, linux, tas, chelsio"):
        build_host(bed, "bogus", "x")


def test_seed_all_arp_covers_every_host():
    bed = Testbed()
    a = bed.add_flextoe_host("a")
    b = bed.add_flextoe_host("b")
    bed.seed_all_arp()
    assert b.ip in a.control_plane.arp.table
    assert a.ip in b.control_plane.arp.table


def test_contexts_get_unique_ids():
    bed = Testbed()
    host = bed.add_flextoe_host("a")
    ctx1 = host.new_context()
    ctx2 = host.new_context()
    assert ctx1.context_id != ctx2.context_id
    # Context 0 is reserved for the control plane.
    assert ctx1.context_id >= 1


def test_format_helpers():
    assert format_rate(40_000_000_000) == "40.00 Gbps"
    assert format_rate(1_500_000) == "1.50 Mbps"
    assert format_rate(2_000) == "2.00 Kbps"
    assert format_rate(12) == "12 bps"
    assert format_us(1500) == "1.5 us"
    assert format_mops(11_350_000) == "11.35 mOps"


def test_table_renders_aligned():
    table = Table("Demo", ["name", "value"])
    table.add_row("short", 1)
    table.add_row("a-much-longer-name", 12345)
    text = table.render()
    lines = text.splitlines()
    assert "== Demo ==" in lines[1]
    data_lines = lines[3:]
    assert len({line.index("|") for line in data_lines if "|" in line}) == 1


def test_table_rejects_wrong_arity():
    table = Table("Demo", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row("only-one")
