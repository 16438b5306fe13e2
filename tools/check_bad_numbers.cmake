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

set(cases
    "${RHMD_VERIFY}|--benign|abc"
    "${RHMD_CERTIFY}|--max-print|3x"
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
