"""Static dimension entities: places, organisations, tag classes, tags.

The paper notes that "Organization and Place information are more
dimension-like and do not scale with the amount of persons or time".  This
module materializes those dimension entities from the built-in dictionaries
once per generation run and provides the lookup structures person/activity
generation needs (country → cities/universities/companies, tag ranking per
country, per-tag vocabulary).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ids import EntityKind, IdAllocator, serial_of
from ..schema.entities import (
    Organisation,
    OrganisationType,
    Place,
    PlaceType,
    Tag,
    TagClass,
)
from .dictionaries import COUNTRIES, TAG_CLASSES, CountrySpec, Dictionaries
from .zorder import zorder8


@dataclass
class CountryUniverse:
    """Resolved ids of everything belonging to one country."""

    spec: CountrySpec
    country_place_id: int
    city_ids: tuple[int, ...]
    university_ids: tuple[int, ...]
    company_ids: tuple[int, ...]
    #: Tag ids ranked by popularity as seen from this country.
    ranked_tag_ids: tuple[int, ...] = ()


@dataclass
class Universe:
    """All dimension entities plus resolution maps used by the generator."""

    places: list[Place] = field(default_factory=list)
    organisations: list[Organisation] = field(default_factory=list)
    tag_classes: list[TagClass] = field(default_factory=list)
    tags: list[Tag] = field(default_factory=list)
    countries: list[CountryUniverse] = field(default_factory=list)
    #: city place id → country universe index.
    country_of_city: dict[int, int] = field(default_factory=dict)
    #: tag id → tag name (for text generation).
    tag_name_by_id: dict[int, str] = field(default_factory=dict)
    #: tag name → tag id.
    tag_id_by_name: dict[str, int] = field(default_factory=dict)
    #: city place id → z-order code (study-location composite keys).
    city_zorder: dict[int, int] = field(default_factory=dict)
    #: city place id → (latitude, longitude).
    city_coords: dict[int, tuple[float, float]] = field(
        default_factory=dict)
    #: organisation id → organisation.
    organisation_by_id: dict[int, Organisation] = field(default_factory=dict)


def build_universe(dictionaries: Dictionaries) -> Universe:
    """Materialize all dimension entities with stable ids.

    Id assignment order is fixed (continents, then countries/cities in
    ``COUNTRIES`` order; tag classes/tags in ``TAG_CLASSES`` order), so the
    universe is identical for every run with the same dictionaries seed.
    """
    universe = Universe()
    place_ids = IdAllocator(EntityKind.PLACE)
    org_ids = IdAllocator(EntityKind.ORGANISATION)
    tagclass_ids = IdAllocator(EntityKind.TAG_CLASS)
    tag_ids = IdAllocator(EntityKind.TAG)

    continent_id_by_name: dict[str, int] = {}
    for continent in sorted({c.continent for c in COUNTRIES}):
        place = Place(place_ids.allocate(), continent, PlaceType.CONTINENT)
        continent_id_by_name[continent] = place.id
        universe.places.append(place)

    for country_index, spec in enumerate(COUNTRIES):
        country_place = Place(place_ids.allocate(), spec.name,
                              PlaceType.COUNTRY,
                              part_of=continent_id_by_name[spec.continent])
        universe.places.append(country_place)
        city_ids: list[int] = []
        for city_name, lat, lon in spec.cities:
            z = zorder8(lat, lon)
            city = Place(place_ids.allocate(), city_name, PlaceType.CITY,
                         part_of=country_place.id, z_order=z)
            universe.places.append(city)
            universe.city_zorder[city.id] = z
            universe.city_coords[city.id] = (lat, lon)
            city_ids.append(city.id)
            universe.country_of_city[city.id] = country_index
        university_ids: list[int] = []
        for uni_name in spec.universities:
            # Universities are located in a city of their country; spread
            # them round-robin over the cities.
            city_id = city_ids[len(university_ids) % len(city_ids)]
            org = Organisation(org_ids.allocate(), uni_name,
                               OrganisationType.UNIVERSITY, city_id)
            universe.organisations.append(org)
            university_ids.append(org.id)
        company_ids: list[int] = []
        for company_name in spec.companies:
            org = Organisation(org_ids.allocate(), company_name,
                               OrganisationType.COMPANY, country_place.id)
            universe.organisations.append(org)
            company_ids.append(org.id)
        universe.countries.append(CountryUniverse(
            spec=spec,
            country_place_id=country_place.id,
            city_ids=tuple(city_ids),
            university_ids=tuple(university_ids),
            company_ids=tuple(company_ids),
        ))

    class_id_by_name: dict[str, int] = {}
    for class_spec in TAG_CLASSES:
        parent_id = (class_id_by_name[class_spec.parent]
                     if class_spec.parent is not None else None)
        tag_class = TagClass(tagclass_ids.allocate(), class_spec.name,
                             parent_id)
        class_id_by_name[class_spec.name] = tag_class.id
        universe.tag_classes.append(tag_class)
        for tag_name in class_spec.tags:
            tag = Tag(tag_ids.allocate(), tag_name, tag_class.id)
            universe.tags.append(tag)
            universe.tag_name_by_id[tag.id] = tag_name
            universe.tag_id_by_name[tag_name] = tag.id

    universe.organisation_by_id = {o.id: o for o in universe.organisations}

    # Resolve per-country tag rankings now that tag ids exist.
    for country in universe.countries:
        ranked_names = dictionaries.tags_ranked_for_country(country.spec.name)
        country.ranked_tag_ids = tuple(
            universe.tag_id_by_name[name] for name in ranked_names)
    return universe


def university_serial(university_id: int) -> int:
    """Serial of a university id, for the 12-bit composite-key slot."""
    return serial_of(university_id)
