import numpy as np
import pytest

from conftest import make_ga_instance
from ssein.moga import gene_links
from ssein.synth import make_planted_instance


class TestPlantedInstance:
    def test_structure_consistency(self):
        inst = make_planted_instance(
            "i", (8, 9, 7, 8), np.random.default_rng(0), shortcuts_per_pair=2
        )
        assert inst.sse_count == 4
        assert sum(inst.sse_sizes) == len(inst.graph.vertices)
        assert set(inst.boosted_shortcuts) <= set(inst.true_shortcuts)
        # every true shortcut joins two different SSEs from an incidence pair
        for u, v in inst.true_shortcuts:
            a = inst.graph.sse_of[u]
            b = inst.graph.sse_of[v]
            assert a != b

    def test_incidence_matches_pairs(self):
        # two clusters of three SSEs, each chained by consecutive links; every
        # true shortcut joins the two SSEs of one pair, in pair order
        inst = make_planted_instance("i", (6, 6, 6, 6, 6, 6), np.random.default_rng(1))
        assert inst.incidence_pairs == ((1, 2), (2, 3), (4, 5), (5, 6))
        sse_index = {sse_id: k for k, sse_id in enumerate(inst.sse_ids, start=1)}
        joined = [
            (sse_index[inst.graph.sse_of[u]], sse_index[inst.graph.sse_of[v]])
            for u, v in inst.true_shortcuts
        ]
        assert joined == list(inst.incidence_pairs)

    def test_incidence_is_chromosome_representable(self):
        # a gene vector linking consecutive cluster members has exactly the
        # planted incidence pairs as its links
        inst = make_ga_instance(np.random.default_rng(3))
        genes = list(range(1, inst.sse_count + 1))
        for a, b in inst.incidence_pairs:
            genes[a - 1] = b
        assert gene_links(tuple(genes)) == inst.incidence_pairs

    def test_boost_fraction_counts(self):
        inst = make_planted_instance(
            "i", (8, 8, 8, 8), np.random.default_rng(2), boost_fraction=0.5,
            shortcuts_per_pair=2,
        )
        assert len(inst.boosted_shortcuts) == round(0.5 * len(inst.true_shortcuts))

    def test_carrier_templates(self):
        inst = make_planted_instance(
            "i", (8, 8, 8, 8), np.random.default_rng(4), n_templates=6, q_boost=2
        )
        carrying = [t for t in inst.templates if t.graph.shortcut_edges]
        assert len(carrying) == 2
        assert len(inst.templates) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            make_planted_instance("i", (8,), np.random.default_rng(0))
        with pytest.raises(ValueError):
            make_planted_instance("i", (8, 8), np.random.default_rng(0), boost_fraction=1.5)
