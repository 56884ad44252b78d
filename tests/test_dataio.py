"""Tests for CSV ingestion, descriptor transforms, and the run configuration's
loader (cli.RunConfig)."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spatgev.dataio import (
    DescriptorTransform,
    MaximaDataset,
    group_maxima,
    read_descriptors_csv,
    read_maxima_csv,
    validate_descriptors,
    write_json_atomic,
    write_maxima_csv,
)
from spatgev.cli import RunConfig, config_hash
from spatgev.errors import ConfigError, DataError
from spatgev.latent import McmcConfig


class TestMaximaCsv:
    def test_two_rows_one_station(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("station,year,amax\nA,2000,12.5\nA,2001,8.25\n")
        ds = group_maxima(read_maxima_csv(str(p)))
        assert ds.n_sites == 1
        years, y = ds.records[0]
        assert_allclose(years, [2000.0, 2001.0])
        assert_allclose(y, [12.5, 8.25])

    def test_stations_sorted_and_years_ordered(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("station,year,amax\nB,2001,1\nA,2005,2\nA,2003,3\nB,1999,4\n")
        ds = group_maxima(read_maxima_csv(str(p)))
        assert ds.station_ids == ["A", "B"]
        assert_allclose(ds.records[0][0], [2003.0, 2005.0])
        assert_allclose(ds.records[1][0], [1999.0, 2001.0])

    def test_duplicate_station_year_names_both_lines(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("station,year,amax\nA,2000,1\nA,2001,2\nA,2000,3\n")
        with pytest.raises(DataError, match=r"lines 2 and 4"):
            read_maxima_csv(str(p))

    def test_malformed_row_has_line_number(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("station,year,amax\nA,2000,1\nA,not_a_year,2\n")
        with pytest.raises(DataError, match=r"m\.csv:3"):
            read_maxima_csv(str(p))

    @pytest.mark.parametrize("year", ["inf", "-inf", "1e999"])
    def test_infinite_year_is_malformed(self, tmp_path, year):
        p = tmp_path / "m.csv"
        p.write_text(f"station,year,amax\nA,2000,1\nA,{year},2\n")
        with pytest.raises(DataError, match=r"m\.csv:3: malformed row"):
            read_maxima_csv(str(p))

    def test_non_utf8_bytes_name_file_and_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"station,year,amax\nA,2000,1\nA,2001,\xff2\n")
        with pytest.raises(DataError, match=r"m\.csv:3: not UTF-8"):
            read_maxima_csv(str(p))

    def test_missing_header_column(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("station,year,peak\nA,2000,1\n")
        with pytest.raises(DataError, match="header"):
            read_maxima_csv(str(p))

    def test_tab_delimiter_sniffed(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("station\tyear\tamax\nA\t2000\t1.5\n")
        rows = read_maxima_csv(str(p))
        assert rows == [("A", 2000, 1.5)]

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        records = [
            (np.arange(1990.0, 2005.0), rng.gamma(2.0, 10.0, 15)),
            (np.arange(1980.0, 1990.0), rng.gamma(2.0, 10.0, 10)),
        ]
        ds = MaximaDataset(station_ids=["x1", "x2"], sites=np.zeros((2, 2)),
                           records=records)
        p = tmp_path / "round.csv"
        write_maxima_csv(str(p), ds)
        back = group_maxima(read_maxima_csv(str(p)))
        assert back.station_ids == ds.station_ids
        for (ya, va), (yb, vb) in zip(ds.records, back.records):
            assert np.array_equal(ya, yb)
            assert np.array_equal(va, vb)  # repr round-trips floats exactly

    def test_coordinates_attached(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("station,year,amax\nA,2000,1\nB,2000,2\n")
        ds = group_maxima(read_maxima_csv(str(p)),
                          sites_by_station={"A": (0.0, 1.0), "B": (2.0, 3.0)})
        assert_allclose(ds.sites, [[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(DataError, match="no coordinates"):
            group_maxima(read_maxima_csv(str(p)), sites_by_station={"A": (0, 1)})


class TestDescriptorsCsv:
    def test_basic_read(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("station,x,y,AREA\nA,1.0,2.0,100\nB,3.0,4.0,250\n")
        ids, names, values = read_descriptors_csv(str(p))
        assert ids == ["A", "B"]
        assert names == ["x", "y", "AREA"]
        assert_allclose(values, [[1.0, 2.0, 100.0], [3.0, 4.0, 250.0]])

    def test_non_utf8_bytes_name_file_and_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"station,x,y\nA,1,2\n\xe9B,3,4\n")
        with pytest.raises(DataError, match=r"d\.csv:3: not UTF-8"):
            read_descriptors_csv(str(p))

    def test_short_row_is_malformed(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y,station\n1,2,A\n3\n")
        with pytest.raises(DataError, match=r"d\.csv:3: malformed row"):
            read_descriptors_csv(str(p))

    def test_duplicate_station(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("station,AREA\nA,100\nA,200\n")
        with pytest.raises(DataError, match="duplicate station"):
            read_descriptors_csv(str(p))

    def test_boolean_pooling_flag_parsed(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("station,AREA,pooling_ok\nA,100,true\nB,200,false\nC,300,1\n")
        _, names, values = read_descriptors_csv(str(p))
        j = names.index("pooling_ok")
        assert_allclose(values[:, j], [1.0, 0.0, 1.0])

    def test_range_validation(self):
        validate_descriptors(["AREA", "FARL"], np.array([[1.63, 0.7], [9930.8, 1.0]]))
        with pytest.raises(DataError, match="AREA"):
            validate_descriptors(["AREA"], np.array([[0.0]]))
        with pytest.raises(DataError, match="FARL"):
            validate_descriptors(["FARL"], np.array([[1.2]]))
        with pytest.raises(DataError, match="BFIHOST"):
            validate_descriptors(["BFIHOST"], np.array([[1.0]]))
        with pytest.raises(DataError, match="URBEXT"):
            validate_descriptors(["URBEXT"], np.array([[-0.1]]))
        with pytest.raises(DataError, match="non-finite"):
            validate_descriptors(["SAAR"], np.array([[np.nan]]))


class TestDescriptorTransform:
    def test_named_special_cases(self):
        names = ["BFIHOST", "URBEXT", "ASPBAR", "AREA"]
        values = np.array([
            [0.5, 0.0, 120.0, 1.63],
            [0.3, 1.0, 240.0, 9930.80],
            [0.7, 0.2, 60.0, 443.0],
        ])
        tr = DescriptorTransform.fit(names, values)
        assert tr.kinds == ["square", "log1p", "scale100", "log"]
        # undo standardization to check the raw transforms
        raw = tr.apply(names, values) * tr.sds + tr.means
        assert_allclose(raw[:, 0], values[:, 0] ** 2)  # 0.5 -> 0.25
        assert_allclose(raw[0, 1], 0.0)  # URBEXT 0 -> log(1) = 0
        assert_allclose(raw[:, 2], values[:, 2] / 100.0)
        assert_allclose(raw[:, 3], np.log(values[:, 3]))
        assert np.all(np.isfinite(raw))

    def test_standardization_uses_training_stats(self):
        rng = np.random.default_rng(1)
        train = np.exp(rng.normal(size=(40, 1)))
        tr = DescriptorTransform.fit(["SAAR"], train)
        out = tr.apply(["SAAR"], train)
        assert abs(out.mean()) < 1e-12
        assert abs(out.std(ddof=0) - 1.0) < 1e-12
        # a single new row reuses the stored statistics verbatim
        new = tr.apply(["SAAR"], np.array([[math.e]]))
        assert_allclose(new[0, 0], (1.0 - tr.means[0]) / tr.sds[0])

    def test_nonpositive_log_names_column(self):
        with pytest.raises(DataError, match="DPLBAR"):
            DescriptorTransform.fit(["DPLBAR"], np.array([[0.0], [1.0]]))

    def test_constant_column_rejected(self):
        with pytest.raises(DataError, match="constant"):
            DescriptorTransform.fit(["SAAR"], np.ones((5, 1)))

    def test_column_mismatch_rejected(self):
        tr = DescriptorTransform.fit(["SAAR"], np.array([[1.0], [2.0]]))
        with pytest.raises(DataError, match="do not match"):
            tr.apply(["AREA"], np.array([[1.0]]))

    def test_dict_round_trip(self):
        tr = DescriptorTransform.fit(["SAAR", "BFIHOST"],
                                     np.array([[800.0, 0.4], [1200.0, 0.6]]))
        back = DescriptorTransform.from_dict(json.loads(json.dumps(tr.to_dict())))
        x = np.array([[950.0, 0.5]])
        assert_allclose(back.apply(tr.names, x), tr.apply(tr.names, x))


class TestDataset:
    def _ds(self):
        return MaximaDataset(
            station_ids=["A", "B", "C"],
            sites=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            records=[(np.arange(1990.0, 2000.0), np.arange(10.0)),
                     (np.arange(1995.0, 2005.0), np.arange(10.0)),
                     (np.arange(2000.0, 2010.0), np.arange(10.0))],
            covariates=np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]),
            covariate_names=["c1", "c2"],
        )

    def test_subset(self):
        sub = self._ds().subset([2, 0])
        assert sub.station_ids == ["C", "A"]
        assert_allclose(sub.covariates[:, 0], [3.0, 1.0])

    def test_filter_years(self):
        f = self._ds().filter_years(hi=2001.0)
        assert f.records[0][0].size == 10
        assert f.records[2][0].max() == 2001.0
        assert f.records[1][0].size == 7

    def test_design_matrix(self):
        X = self._ds().design_matrix(["c2"])
        assert_allclose(X, [[1.0, 10.0], [1.0, 20.0], [1.0, 30.0]])
        with pytest.raises(ConfigError, match="c9"):
            self._ds().design_matrix(["c9"])


class TestRunConfig:
    def test_valid_config(self):
        cfg = RunConfig.from_json(json.dumps({
            "seed": 7,
            "trend": True,
            "covariates": ["SAAR"],
            "mcmc": {"n_chains": 4, "n_iterations": 2000},
        }))
        assert cfg.seed == 7
        assert cfg.trend is True
        assert cfg.covariates == ["SAAR"]
        assert cfg.t0 is None and cfg.tau_covariates == []
        assert (cfg.mcmc.n_chains, cfg.mcmc.n_iterations) == (4, 2000)
        assert cfg.mcmc.n_kept == McmcConfig().n_kept
        # a section's seed takes the run's seed unless given
        assert cfg.mcmc.seed == cfg.selection.seed == cfg.cv.seed == 7

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_json('{"seeed": 1}')

    @pytest.mark.parametrize("text, key", [
        ('{"seed": "x"}', "seed"), ('{"seed": true}', "seed"), ('{"seed": 1.5}', "seed"),
        ('{"trend": 1}', "trend"), ('{"t0": "1990"}', "t0"),
        ('{"covariates": "c1"}', "covariates"), ('{"mcmc": []}', "mcmc"),
    ])
    def test_wrong_top_level_type(self, text, key):
        with pytest.raises(ConfigError, match=repr(key)):
            RunConfig.from_json(text)

    def test_int_is_a_float(self):
        assert RunConfig.from_json('{"t0": 1990}').t0 == 1990

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            RunConfig.from_json("{not json")

    def test_non_object_root(self):
        with pytest.raises(ConfigError, match="object"):
            RunConfig.from_json("[1, 2]")

    def test_reads_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"seed": 3}')
        assert RunConfig.from_json(str(p)).seed == 3

    def test_hash_stable_under_key_order(self):
        a = RunConfig.from_json('{"seed": 1, "trend": true}')
        b = RunConfig.from_json('{"trend": true, "seed": 1}')
        c = RunConfig.from_json('{"trend": true, "seed": 2}')
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 16


class TestAtomicWrite:
    def test_no_tmp_left_behind(self, tmp_path):
        p = tmp_path / "out.json"
        write_json_atomic(str(p), {"a": 1})
        assert json.loads(p.read_text()) == {"a": 1}
        assert list(tmp_path.iterdir()) == [p]
