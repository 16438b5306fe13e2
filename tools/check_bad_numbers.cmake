# Check that each tool rejects a malformed number with the usage exit
# status 2 instead of reading a prefix of it ("3x" as 3) or nothing of
# it ("abc" as 0).
#
# Usage:
#   cmake -DRHMD_VERIFY=<bin> -DRHMD_CERTIFY=<bin> -DRHMD_CORPUS=<bin> \
#         -P tools/check_bad_numbers.cmake

foreach(tool RHMD_VERIFY RHMD_CERTIFY RHMD_CORPUS)
    if(NOT ${tool})
        message(FATAL_ERROR "set -D${tool}=...")
    endif()
endforeach()

# The certify cases with a double flag name a small corpus, so a
# tool that reads the bad value as a number runs quickly to exit 0.
set(cases
    "${RHMD_VERIFY}|--benign|abc"
    "${RHMD_CERTIFY}|--max-print|3x"
    "${RHMD_CERTIFY}|--epsilon|abc|--benign|20|--malware|40"
    "${RHMD_CERTIFY}|--cap|3x|--benign|20|--malware|40"
    "${RHMD_CORPUS}|cat|--program|1x|missing.rhmdc")
foreach(case IN LISTS cases)
    string(REPLACE "|" ";" command "${case}")
    execute_process(COMMAND ${command}
                    OUTPUT_QUIET ERROR_QUIET
                    RESULT_VARIABLE status)
    if(NOT status EQUAL 2)
        message(FATAL_ERROR "'${case}' exited with ${status}, not 2")
    endif()
endforeach()
