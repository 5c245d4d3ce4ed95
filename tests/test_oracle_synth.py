"""Self-tests for the synth_data SF wrappers."""
from repro import synth_data


def test_geospatial_video_dataset_sf_scaling():
    ds = synth_data.geospatial_video_dataset(sf=0.01, n_frames=24)
    assert ds.cameras["video_id"].nunique() == 1
    ds2 = synth_data.geospatial_video_dataset(sf=0.03, n_frames=24)
    assert ds2.cameras["video_id"].nunique() == 3


def test_aerial_video_dataset_sf_scaling():
    ds = synth_data.aerial_video_dataset(sf=0.01)
    assert len(ds.cameras) >= 120
    assert (ds.cameras["cam_z"] == 60.0).all()
