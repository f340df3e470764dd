import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_ga_instance
from ssein.aco import round_half_up
from ssein.moga import gene_links
from ssein.synth import make_planted_instance


def cluster_chain_pairs(m):
    """Two clusters, the first one SSE larger on odd M, each chained by
    consecutive links."""
    split = (m + 1) // 2
    return [(k, k + 1) for k in range(1, m) if k != split]


class TestPlantedInstance:
    def test_structure_consistency(self):
        inst = make_planted_instance(
            "i", (8, 9, 7, 8), np.random.default_rng(0), shortcuts_per_pair=2
        )
        query = inst.query
        assert inst.instance_id == "i"
        assert query.sse_count == 4
        assert sum(query.sse_sizes) == len(query.vertices)
        # every true shortcut joins two different SSEs from an incidence pair
        for (ku, _), (kv, _) in query.shortcut_cells():
            assert ku != kv

    def test_incidence_matches_pairs(self):
        # two clusters of three SSEs, each chained by consecutive links; every
        # true shortcut joins the two SSEs of one pair, in pair order
        query = make_planted_instance("i", (6, 6, 6, 6, 6, 6), np.random.default_rng(1)).query
        assert query.sse_links() == [(1, 2), (2, 3), (4, 5), (5, 6)]
        joined = [(ku, kw) for (ku, _), (kw, _) in query.shortcut_cells()]
        assert joined == query.sse_links()

    def test_incidence_is_chromosome_representable(self):
        # a gene vector linking consecutive cluster members has exactly the
        # planted SSE links as its links
        query = make_ga_instance(np.random.default_rng(3)).query
        genes = list(range(1, query.sse_count + 1))
        for a, b in query.sse_links():
            genes[a - 1] = b
        assert list(gene_links(tuple(genes))) == query.sse_links()

    def test_boost_fraction_counts(self):
        inst = make_planted_instance(
            "i", (8, 8, 8, 8), np.random.default_rng(2), boost_fraction=0.5,
            shortcuts_per_pair=2,
        )
        boosted = inst.templates["i-T1"].shortcut_edges
        assert len(boosted) == round(0.5 * len(inst.query.shortcut_edges))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 12), min_size=2, max_size=9),
        st.integers(1, 4),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_planted_query(self, sizes, per_pair, boost_fraction, seed):
        inst = make_planted_instance(
            "h", tuple(sizes), np.random.default_rng(seed), shortcuts_per_pair=per_pair,
            boost_fraction=boost_fraction, n_templates=3,
        )
        query = inst.query
        pairs = cluster_chain_pairs(len(sizes))
        assert query.sse_links() == pairs
        assert len(query.shortcut_edges) == sum(
            min(per_pair, sizes[a - 1], sizes[b - 1]) for a, b in pairs
        )
        boosted_count = round_half_up(boost_fraction * len(query.shortcut_edges))
        for template in inst.templates.values():
            boosted = template.shortcut_edges
            assert set(boosted) <= set(query.shortcut_edges)
            assert len(boosted) == boosted_count

    def test_family_maps_every_template_id_to_one_graph(self):
        # the family is built once: n_templates ids, one shared SSE-IN
        inst = make_planted_instance(
            "i", (8, 8, 8), np.random.default_rng(4), boost_fraction=0.5, n_templates=5
        )
        assert list(inst.templates) == [f"i-T{t}" for t in range(1, 6)]
        graph = inst.templates["i-T1"]
        assert all(template is graph for template in inst.templates.values())
        assert graph.sse_ranges == inst.query.sse_ranges
        assert graph.intra_edges == inst.query.intra_edges
